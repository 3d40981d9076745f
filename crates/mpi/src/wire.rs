//! Byte-level message encoding.
//!
//! The simulator charges bandwidth for the bytes MPI would transfer: a
//! message's encoded size in this format. The ranks are threads of one
//! process, so a frame hands its value over and is billed at
//! [`Wire::wire_len`] without being encoded, and a checkpoint holds its
//! snapshot as a value billed the same way: nothing between ranks is
//! ever encoded, checksummed or decoded. The codec itself stays as the
//! definition of those sizes (and for callers that do want the bytes):
//! a tiny hand-rolled little-endian format (no external serialization
//! dependency) of fixed-width primitives, length-prefixed strings and
//! sequences, and derived impls for tuples and `Option`.
//!
//! Every router message type implements [`Wire`] by composing these.

use std::fmt;

/// Errors produced while decoding a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the decoder needed.
    Truncated { needed: usize, remaining: usize },
    /// An enum discriminant or bool byte had an invalid value.
    BadTag(u8),
    /// Trailing bytes after a complete decode (indicates a type mismatch).
    TrailingBytes(usize),
    /// A row of a rectangular table is not as long as its first row.
    Ragged { expected: usize, got: usize },
    /// An index names no entry of a table of `len` entries.
    OutOfRange { index: u64, len: u64 },
    /// A frame held another kind of content than the receive asked for:
    /// a value of another type, or a charged value where one billed at
    /// its encoding was expected (and the reverse).
    WrongType {
        expected: &'static str,
        found: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated message: needed {needed} bytes, {remaining} remaining"
                )
            }
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Ragged { expected, got } => {
                write!(f, "ragged table: a row of {got} after rows of {expected}")
            }
            WireError::OutOfRange { index, len } => {
                write!(f, "index {index} out of range for {len} entries")
            }
            WireError::WrongType { expected, found } => {
                write!(f, "the frame holds {found} where {expected} was expected")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A type that can be encoded to / decoded from a message buffer.
pub trait Wire: Sized {
    /// The bytes every value encodes to, if that is one number: a `Vec`
    /// of such values reserves its frame exactly instead of doubling.
    const SIZE: Option<usize> = None;

    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// How many bytes [`Wire::encode`] appends for this value, without
    /// encoding it: what a typed frame carrying it is billed. A
    /// fixed-size type has it as [`Wire::SIZE`]; a type whose size varies
    /// adds up its parts (the fallback measures an encoding, which is
    /// the work a typed frame exists to skip).
    fn wire_len(&self) -> usize {
        Self::SIZE.unwrap_or_else(|| self.to_bytes().len())
    }

    /// Encode to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a full buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

macro_rules! wire_primitive {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const SIZE: Option<usize> = Some(std::mem::size_of::<$t>());
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let n = std::mem::size_of::<$t>();
                let b = r.take(n)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("exact slice")))
            }
        }
    )*};
}

wire_primitive!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    const SIZE: Option<usize> = Some(8);
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::decode(r)? as usize)
    }
}

impl Wire for bool {
    const SIZE: Option<usize> = Some(1);
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for () {
    const SIZE: Option<usize> = Some(0);
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag(0xFF))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        if let Some(size) = T::SIZE {
            out.reserve(size * self.len());
        }
        for item in self {
            item.encode(out);
        }
    }
    fn wire_len(&self) -> usize {
        4 + match T::SIZE {
            Some(size) => size * self.len(),
            None => self.iter().map(Wire::wire_len).sum(),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        // Cap pre-allocation: a corrupt length must not OOM the decoder.
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const SIZE: Option<usize> = $crate::wire::fixed_size(&[$($name::SIZE),+]);
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn wire_len(&self) -> usize {
                0 $(+ self.$idx.wire_len())+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// [`Wire::SIZE`] of a record of `parts`: `None` if one of them varies.
pub const fn fixed_size(parts: &[Option<usize>]) -> Option<usize> {
    match parts {
        [] => Some(0),
        [Some(n), rest @ ..] => match fixed_size(rest) {
            Some(m) => Some(*n + m),
            None => None,
        },
        [None, ..] => None,
    }
}

/// Derive [`Wire`] for a plain struct by listing its fields.
///
/// ```
/// use pgr_mpi::wire::Wire;
/// pgr_mpi::wire_struct!(struct Foo { a: u32, b: Vec<i64> });
/// let f = Foo { a: 1, b: vec![-2, 3] };
/// assert_eq!(Foo::from_bytes(&f.to_bytes()).unwrap().b, vec![-2, 3]);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::wire::Wire for $name {
            const SIZE: Option<usize> =
                $crate::wire::fixed_size(&[$(<$ty as $crate::wire::Wire>::SIZE),*]);
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)*
            }
            fn wire_len(&self) -> usize {
                0 $(+ $crate::wire::Wire::wire_len(&self.$field))*
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $($field: <$ty as $crate::wire::Wire>::decode(r)?),*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(-5i32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(123456usize);
        roundtrip(());
    }

    #[test]
    fn strings_and_vecs_roundtrip() {
        roundtrip(String::from("hello, 世界"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1i64, -2], vec![], vec![3]]);
    }

    #[test]
    fn options_and_tuples_roundtrip() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u32));
        roundtrip((1u8, -2i64, String::from("x")));
        roundtrip((true, (1u32, 2u32)));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = 0x1234_5678u32.to_bytes();
        assert!(matches!(
            u32::from_bytes(&bytes[..2]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u32::from_bytes(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_bool_tag_is_an_error() {
        assert!(matches!(bool::from_bytes(&[2]), Err(WireError::BadTag(2))));
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        // Length says 2^31 elements but only 4 bytes follow.
        let mut bytes = (u32::MAX / 2).to_bytes();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Vec::<u32>::from_bytes(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    wire_struct!(
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u32,
            b: Vec<i64>,
            c: Option<String>,
        }
    );

    #[test]
    fn wire_struct_macro_roundtrips() {
        roundtrip(Demo {
            a: 9,
            b: vec![1, -1],
            c: Some("z".into()),
        });
        roundtrip(Demo {
            a: 0,
            b: vec![],
            c: None,
        });
    }

    wire_struct!(
        #[derive(Clone)]
        struct Fixed {
            a: u32,
            b: (i64, bool),
        }
    );

    #[test]
    fn fixed_size_records_are_framed_exactly() {
        assert_eq!(Fixed::SIZE, Some(13));
        assert_eq!(Demo::SIZE, None, "a Vec or an Option field varies");
        let records: Vec<Fixed> = (0..1000).map(|a| Fixed { a, b: (-1, true) }).collect();
        let bytes = records.to_bytes();
        assert_eq!(bytes.len(), 4 + 13 * 1000);
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "reserved once, never doubled"
        );
    }

    /// `wire_len` of `v` is the length of its encoding.
    fn billed_exactly<T: Wire>(v: T) {
        assert_eq!(v.wire_len(), v.to_bytes().len());
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        billed_exactly(());
        billed_exactly(7u64);
        billed_exactly(-3i64);
        billed_exactly(String::new());
        billed_exactly(String::from("héllo"));
        billed_exactly(Vec::<u32>::new());
        billed_exactly(vec![1i64, -2, 3]);
        billed_exactly(vec![vec![1u8], vec![], vec![2, 3]]);
        billed_exactly(Option::<u32>::None);
        billed_exactly(Some((1u8, String::from("x"))));
        billed_exactly(vec![Some(1u32), None]);
        billed_exactly(Demo {
            a: 9,
            b: vec![1, -1],
            c: Some("z".into()),
        });
        billed_exactly(vec![
            Fixed {
                a: 1,
                b: (-1, true)
            };
            3
        ]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![1u32, 2, 3], Some(String::from("abc")));
        assert_eq!(v.to_bytes(), v.to_bytes());
    }
}
