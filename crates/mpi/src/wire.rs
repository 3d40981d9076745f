//! Byte-level message encoding.
//!
//! Messages between ranks are flat byte buffers so the simulator can charge
//! bandwidth for their *actual* size, exactly as MPI would transfer them.
//! The codec is a tiny hand-rolled little-endian format (no external
//! serialization dependency): fixed-width primitives, length-prefixed
//! strings and sequences, and derived impls for tuples and `Option`.
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
        }
    }
}

impl std::error::Error for WireError {}

/// Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320) lookup tables
/// for slice-by-8, built at compile time so frame checksumming needs no
/// lazy init. `CRC32_TABLES[0]` is the classic one-byte-per-step table;
/// `CRC32_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, which is what lets eight bytes be folded in one step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time CRC step over `data` from state `c` (no pre- or
/// post-inversion).
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data`. Every frame the transport sends carries this
/// checksum over its payload; delivery verifies it, so a flipped bit in
/// transit is detected instead of silently handed to the algorithm.
///
/// Slice-by-8: eight bytes per step through eight tables, the byte loop
/// only for the tail of fewer than eight — every frame is hashed once
/// on each side of the wire, so the per-byte cost is the transport's.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_bytewise(c, words.remainder()) ^ 0xFFFF_FFFF
}

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

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![1u32, 2, 3], Some(String::from("abc")));
        assert_eq!(v.to_bytes(), v.to_bytes());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value plus the empty-input identity.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let payload: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        let clean = crc32(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), clean, "bit {bit} flip went undetected");
        }
    }

    /// The byte-at-a-time CRC that `crc32` replaced, kept as the
    /// reference the slice-by-8 must agree with on every input.
    fn crc32_reference(data: &[u8]) -> u32 {
        crc32_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(n: usize, seed: u64) -> Vec<u8> {
        (0..n as u64)
            .map(|i| (crate::fault::splitmix64(seed ^ i) >> 32) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = seeded_bytes(256 + 8, 32);
        for start in 0..8 {
            for len in 0..=256 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_on_bulk_buffers() {
        let seeded = seeded_bytes(1 << 20, 14);
        assert_eq!(crc32(&seeded), crc32_reference(&seeded));
        // One byte short of a whole number of words: the tail loop runs.
        assert_eq!(crc32(&seeded[1..]), crc32_reference(&seeded[1..]));
        let zeros = vec![0u8; 1 << 20];
        assert_eq!(crc32(&zeros), crc32_reference(&zeros));
    }
}
