//! Plain-text netlist interchange format.
//!
//! A minimal line-oriented format so circuits can be saved, inspected, and
//! reloaded (e.g. to pin down a failing instance from a fuzzing run or to
//! ship a benchmark input). Ids are implicit in declaration order, which
//! keeps files diff-friendly:
//!
//! ```text
//! pgr-circuit v1
//! name primary2
//! width 812
//! rows 28
//! cell <row> <x> <width>
//! pin <cell> <offset> <T|B> <0|1>
//! net <name> <pin> <pin> ...
//! ```
//!
//! Lines end at `\n`. Within a line, fields are separated by runs of
//! whitespace as `char::is_whitespace` defines it: the ASCII tab, line
//! feed, vertical tab, form feed, carriage return and space, and the
//! Unicode separators (U+0085, U+00A0, U+1680, U+2000–U+200A, U+2028,
//! U+2029, U+202F, U+205F, U+3000). So a `\r\n` file parses as a `\n`
//! one, and a line whose first field starts with `#` is a comment.
//! Numbers are read by `str::parse`: a leading `+` is accepted, a `-` on
//! an unsigned field and an overflow are errors.
//!
//! [`from_text`] costs one pass over the text's bytes plus work linear in
//! its records: the tokenizer tests each ASCII byte directly (decoding a
//! character only at a byte of 0x80 or more), and [`Circuit::validate`]
//! is linear in rows + cells + pins.

use crate::ids::{CellId, PinId, RowId};
use crate::model::{Circuit, ModelError, PinSide};
use crate::store::CircuitStore;
use std::fmt;
use std::fmt::Write as _;

/// Serialize a circuit to the v1 text format.
pub fn to_text(c: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("pgr-circuit v1\n");
    let _ = writeln!(out, "name {}", c.name);
    let _ = writeln!(out, "width {}", c.width);
    let _ = writeln!(out, "rows {}", c.num_rows());
    for cell in c.cells() {
        let _ = writeln!(out, "cell {} {} {}", cell.row.0, cell.x, cell.width);
    }
    for pin in c.pins() {
        let side = match pin.side {
            PinSide::Top => 'T',
            PinSide::Bottom => 'B',
        };
        let _ = writeln!(
            out,
            "pin {} {} {} {}",
            pin.cell.0,
            pin.offset,
            side,
            u8::from(pin.equivalent)
        );
    }
    for net in c.nets() {
        let _ = write!(out, "net {}", net.name);
        for p in net.pins {
            let _ = write!(out, " {}", p.0);
        }
        out.push('\n');
    }
    out
}

/// Row-count ceiling for parsed files: `finalize()` allocates per-row
/// tables, so an adversarial `rows` line must not size allocations.
const MAX_ROWS: usize = 1 << 20;

/// Coordinate ceiling for parsed files: keeps every downstream sum of a
/// coordinate with a `u32` width or offset far from `i64` overflow.
const MAX_COORD: i64 = 1 << 40;

/// Parse the v1 text format. The result is fully validated.
pub fn from_text(text: &str) -> Result<Circuit, FormatError> {
    if text.is_empty() {
        return Err(FormatError::Empty);
    }
    let header_end = text.find('\n').unwrap_or(text.len());
    if text[..header_end].trim() != "pgr-circuit v1" {
        return Err(FormatError::Syntax(
            1,
            "expected header 'pgr-circuit v1'".into(),
        ));
    }

    let mut name = String::new();
    let mut width: Option<i64> = None;
    let mut num_rows: Option<usize> = None;
    let mut store = CircuitStore::new();
    let mut net_pins: Vec<PinId> = Vec::new();

    let mut fields = Fields {
        text,
        pos: header_end,
    };
    let mut lineno = 1;
    while fields.next_line() {
        lineno += 1;
        let Some(kw) = fields.next() else { continue };
        if kw.starts_with('#') {
            continue;
        }
        let syntax = |msg: &str| FormatError::Syntax(lineno, msg.into());
        let mut field = |missing: &str| fields.next().ok_or_else(|| syntax(missing));
        match kw {
            "name" => name = fields.by_ref().collect::<Vec<_>>().join(" "),
            "width" => {
                let w: i64 = field("width needs a value")?
                    .parse()
                    .map_err(|_| syntax("bad width"))?;
                if !(-MAX_COORD..=MAX_COORD).contains(&w) {
                    return Err(syntax("width out of range"));
                }
                width = Some(w);
            }
            "rows" => {
                let n: usize = field("rows needs a value")?
                    .parse()
                    .map_err(|_| syntax("bad row count"))?;
                if n > MAX_ROWS {
                    return Err(syntax("row count out of range"));
                }
                num_rows = Some(n);
            }
            "cell" => {
                let row: u32 = field("cell needs <row>")?
                    .parse()
                    .map_err(|_| syntax("bad row"))?;
                let x: i64 = field("cell needs <x>")?
                    .parse()
                    .map_err(|_| syntax("bad x"))?;
                if !(-MAX_COORD..=MAX_COORD).contains(&x) {
                    return Err(syntax("cell x out of range"));
                }
                let w: u32 = field("cell needs <width>")?
                    .parse()
                    .map_err(|_| syntax("bad width"))?;
                store.push_cell(RowId(row), x, w);
            }
            "pin" => {
                let cell: u32 = field("pin needs <cell>")?
                    .parse()
                    .map_err(|_| syntax("bad cell"))?;
                let offset: u32 = field("pin needs <offset>")?
                    .parse()
                    .map_err(|_| syntax("bad offset"))?;
                let side = match field("pin needs <side>")? {
                    "T" => PinSide::Top,
                    "B" => PinSide::Bottom,
                    _ => return Err(syntax("side must be T or B")),
                };
                let equivalent = match field("pin needs <equiv>")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(syntax("equiv must be 0 or 1")),
                };
                let cell_id = CellId(cell);
                if cell_id.index() >= store.num_cells() {
                    return Err(FormatError::Syntax(
                        lineno,
                        format!("pin references undeclared cell {cell}"),
                    ));
                }
                store.push_pin(cell_id, offset, side, equivalent);
            }
            "net" => {
                let nname = field("net needs a name")?;
                net_pins.clear();
                for t in fields.by_ref() {
                    let p: u32 = t.parse().map_err(|_| syntax("bad pin id"))?;
                    let pid = PinId(p);
                    if pid.index() >= store.num_pins() {
                        return Err(FormatError::Syntax(
                            lineno,
                            format!("net references undeclared pin {p}"),
                        ));
                    }
                    net_pins.push(pid);
                }
                store.push_net(nname, &net_pins);
            }
            other => {
                return Err(FormatError::Syntax(
                    lineno,
                    format!("unknown keyword '{other}'"),
                ))
            }
        }
    }

    let num_rows = num_rows.ok_or(FormatError::Missing("rows"))?;
    let width = width.ok_or(FormatError::Missing("width"))?;
    for i in 0..store.num_cells() {
        let row = store.cell_row[i];
        if row.index() >= num_rows {
            return Err(FormatError::RowRange {
                cell: CellId::from_index(i),
                row,
                rows: num_rows,
            });
        }
    }
    // finalize() sorts each row's cells left-to-right for validate().
    store.finalize(num_rows);

    let circuit = Circuit::from_store(name, width, num_rows, store);
    circuit.validate().map_err(FormatError::Invalid)?;
    Ok(circuit)
}

/// The fields of a text, one line at a time, in one pass over its bytes.
/// A line ends at `\n`; a field is a maximal run of characters that are
/// not `char::is_whitespace`, the set `str::split_whitespace` splits at.
/// An ASCII byte is classified directly; a byte of 0x80 or more starts a
/// character that is decoded and classified on a cold path.
struct Fields<'t> {
    text: &'t str,
    /// Where the scan stands: always on a character boundary.
    pos: usize,
}

impl Fields<'_> {
    /// Move past the end of the current line. `false` when no line follows.
    fn next_line(&mut self) -> bool {
        let rest = &self.text.as_bytes()[self.pos..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                self.pos += nl + 1;
                true
            }
            None => {
                self.pos = self.text.len();
                false
            }
        }
    }

    /// Whether the character at `pos`, which starts with byte `b`, is
    /// whitespace, and its length in bytes.
    #[inline]
    fn space_at(&self, b: u8) -> (bool, usize) {
        if b < 0x80 {
            (ascii_space(b), 1)
        } else {
            self.wide()
        }
    }

    /// [`Fields::space_at`] for a character of more than one byte.
    #[cold]
    fn wide(&self) -> (bool, usize) {
        let c = self.text[self.pos..]
            .chars()
            .next()
            .expect("a character starts here");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// ASCII whitespace by `char::is_whitespace`: tab, line feed, vertical
/// tab, form feed, carriage return and space.
fn ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

impl<'t> Iterator for Fields<'t> {
    type Item = &'t str;

    /// The current line's next field; `None` at the line's end.
    fn next(&mut self) -> Option<&'t str> {
        let bytes = self.text.as_bytes();
        loop {
            match bytes.get(self.pos) {
                None | Some(b'\n') => return None,
                Some(&b) => match self.space_at(b) {
                    (true, len) => self.pos += len,
                    (false, _) => break,
                },
            }
        }
        let start = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            match self.space_at(b) {
                (true, _) => break,
                (false, len) => self.pos += len,
            }
        }
        Some(&self.text[start..self.pos])
    }
}

/// Errors from [`from_text`].
#[derive(Debug)]
pub enum FormatError {
    Empty,
    Missing(&'static str),
    Syntax(usize, String),
    RowRange {
        cell: CellId,
        row: RowId,
        rows: usize,
    },
    Invalid(ModelError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Empty => write!(f, "empty input"),
            FormatError::Missing(what) => write!(f, "missing '{what}' declaration"),
            FormatError::Syntax(line, msg) => write!(f, "line {line}: {msg}"),
            FormatError::RowRange { cell, row, rows } => {
                write!(
                    f,
                    "cell {cell} references row {row} >= declared rows {rows}"
                )
            }
            FormatError::Invalid(e) => write!(f, "parsed circuit invalid: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`from_text`] as it was before the one-pass tokenizer, over the
    /// reference [`Circuit::validate`]: `lines`, `trim` and
    /// `split_whitespace`. What the one-pass form must return, circuit or
    /// error, on every text whose core is not empty.
    pub(crate) fn from_text(text: &str) -> Result<Circuit, FormatError> {
        let mut lines = text.lines().enumerate();
        let (n0, header) = lines.next().ok_or(FormatError::Empty)?;
        if header.trim() != "pgr-circuit v1" {
            return Err(FormatError::Syntax(
                n0 + 1,
                "expected header 'pgr-circuit v1'".into(),
            ));
        }

        let mut name = String::new();
        let mut width: Option<i64> = None;
        let mut num_rows: Option<usize> = None;
        let mut store = CircuitStore::new();
        let mut net_pins: Vec<PinId> = Vec::new();

        for (i, raw) in lines {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let Some(kw) = tok.next() else { continue };
            let syntax = |msg: &str| FormatError::Syntax(lineno, msg.into());
            match kw {
                "name" => name = tok.collect::<Vec<_>>().join(" "),
                "width" => {
                    let w: i64 = tok
                        .next()
                        .ok_or_else(|| syntax("width needs a value"))?
                        .parse()
                        .map_err(|_| syntax("bad width"))?;
                    if !(-MAX_COORD..=MAX_COORD).contains(&w) {
                        return Err(syntax("width out of range"));
                    }
                    width = Some(w);
                }
                "rows" => {
                    let n: usize = tok
                        .next()
                        .ok_or_else(|| syntax("rows needs a value"))?
                        .parse()
                        .map_err(|_| syntax("bad row count"))?;
                    if n > MAX_ROWS {
                        return Err(syntax("row count out of range"));
                    }
                    num_rows = Some(n);
                }
                "cell" => {
                    let row: u32 = tok
                        .next()
                        .ok_or_else(|| syntax("cell needs <row>"))?
                        .parse()
                        .map_err(|_| syntax("bad row"))?;
                    let x: i64 = tok
                        .next()
                        .ok_or_else(|| syntax("cell needs <x>"))?
                        .parse()
                        .map_err(|_| syntax("bad x"))?;
                    if !(-MAX_COORD..=MAX_COORD).contains(&x) {
                        return Err(syntax("cell x out of range"));
                    }
                    let w: u32 = tok
                        .next()
                        .ok_or_else(|| syntax("cell needs <width>"))?
                        .parse()
                        .map_err(|_| syntax("bad width"))?;
                    store.push_cell(RowId(row), x, w);
                }
                "pin" => {
                    let cell: u32 = tok
                        .next()
                        .ok_or_else(|| syntax("pin needs <cell>"))?
                        .parse()
                        .map_err(|_| syntax("bad cell"))?;
                    let offset: u32 = tok
                        .next()
                        .ok_or_else(|| syntax("pin needs <offset>"))?
                        .parse()
                        .map_err(|_| syntax("bad offset"))?;
                    let side = match tok.next().ok_or_else(|| syntax("pin needs <side>"))? {
                        "T" => PinSide::Top,
                        "B" => PinSide::Bottom,
                        _ => return Err(syntax("side must be T or B")),
                    };
                    let equivalent = match tok.next().ok_or_else(|| syntax("pin needs <equiv>"))? {
                        "0" => false,
                        "1" => true,
                        _ => return Err(syntax("equiv must be 0 or 1")),
                    };
                    let cell_id = CellId(cell);
                    if cell_id.index() >= store.num_cells() {
                        return Err(FormatError::Syntax(
                            lineno,
                            format!("pin references undeclared cell {cell}"),
                        ));
                    }
                    store.push_pin(cell_id, offset, side, equivalent);
                }
                "net" => {
                    let nname = tok.next().ok_or_else(|| syntax("net needs a name"))?;
                    net_pins.clear();
                    for t in tok {
                        let p: u32 = t.parse().map_err(|_| syntax("bad pin id"))?;
                        let pid = PinId(p);
                        if pid.index() >= store.num_pins() {
                            return Err(FormatError::Syntax(
                                lineno,
                                format!("net references undeclared pin {p}"),
                            ));
                        }
                        net_pins.push(pid);
                    }
                    store.push_net(nname, &net_pins);
                }
                other => {
                    return Err(FormatError::Syntax(
                        lineno,
                        format!("unknown keyword '{other}'"),
                    ))
                }
            }
        }

        let num_rows = num_rows.ok_or(FormatError::Missing("rows"))?;
        let width = width.ok_or(FormatError::Missing("width"))?;
        for i in 0..store.num_cells() {
            let row = store.cell_row[i];
            if row.index() >= num_rows {
                return Err(FormatError::RowRange {
                    cell: CellId::from_index(i),
                    row,
                    rows: num_rows,
                });
            }
        }
        // finalize() sorts each row's cells left-to-right for validate().
        store.finalize(num_rows);

        let circuit = Circuit::from_store(name, width, num_rows, store);
        crate::model::reference::validate(&circuit).map_err(FormatError::Invalid)?;
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use crate::ids::NetId;

    #[test]
    fn roundtrip_preserves_everything() {
        let c = generate(&GeneratorConfig::small("round", 5));
        let text = to_text(&c);
        let c2 = from_text(&text).unwrap();
        assert_eq!(c.name, c2.name);
        assert_eq!(c.width, c2.width);
        assert_eq!(c.num_cells(), c2.num_cells());
        assert_eq!(c.num_pins(), c2.num_pins());
        assert_eq!(c.num_nets(), c2.num_nets());
        for i in 0..c.num_pins() {
            let p = PinId::from_index(i);
            assert_eq!(c.pin_x(p), c2.pin_x(p));
            assert_eq!(c.pin_equivalent(p), c2.pin_equivalent(p));
            assert_eq!(c.pin_net(p), c2.pin_net(p));
        }
        for i in 0..c.num_nets() {
            let n = NetId::from_index(i);
            assert_eq!(c.net_name(n), c2.net_name(n));
        }
        // And a second roundtrip is textually identical (canonical form).
        assert_eq!(text, to_text(&c2));
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            from_text("nonsense\n"),
            Err(FormatError::Syntax(1, _))
        ));
        assert!(matches!(from_text(""), Err(FormatError::Empty)));
    }

    #[test]
    fn rejects_dangling_references() {
        let text = "pgr-circuit v1\nname x\nwidth 10\nrows 1\ncell 0 0 4\npin 5 0 T 0\n";
        assert!(matches!(from_text(text), Err(FormatError::Syntax(_, _))));
    }

    #[test]
    fn rejects_invalid_circuit() {
        // Net with a single pin fails model validation.
        let text =
            "pgr-circuit v1\nname x\nwidth 10\nrows 1\ncell 0 0 4\npin 0 0 T 0\nnet solo 0\n";
        assert!(matches!(from_text(text), Err(FormatError::Invalid(_))));
    }

    #[test]
    fn rejects_duplicate_pin_in_net() {
        let text =
            "pgr-circuit v1\nname x\nwidth 10\nrows 1\ncell 0 0 4\npin 0 0 T 0\nnet twice 0 0\n";
        assert!(matches!(
            from_text(text),
            Err(FormatError::Invalid(ModelError::DuplicatePin(_)))
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "pgr-circuit v1\n# comment\n\nname x\nwidth 10\nrows 1\ncell 0 0 4\ncell 0 4 4\npin 0 0 T 0\npin 1 1 B 1\nnet n 0 1\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.num_nets(), 1);
        assert_eq!(c.pin_side(PinId(1)), PinSide::Bottom);
    }

    /// A text whose core is `width` columns by `rows` rows: the reference
    /// took the empty ones and left the router to panic on them.
    fn refused_as_empty(width: i64, rows: i64) {
        let text = format!("pgr-circuit v1\nname x\nwidth {width}\nrows {rows}\n");
        assert!(reference::from_text(&text).is_ok(), "{text}");
        let err = from_text(&text).unwrap_err();
        let empty = matches!(err, FormatError::Invalid(ModelError::EmptyCore(_)));
        assert!(empty, "{text}: {err}");
    }

    #[test]
    fn a_zero_width_core_is_refused() {
        refused_as_empty(0, 1);
    }

    #[test]
    fn a_negative_width_core_is_refused() {
        refused_as_empty(-5, 1);
    }

    #[test]
    fn a_core_without_rows_is_refused() {
        refused_as_empty(10, 0);
    }

    /// A core inside the parser's coordinate range whose channel columns
    /// the router could not allocate: refused before any routing store
    /// exists.
    #[test]
    fn a_core_past_the_channel_column_bound_is_refused() {
        for (width, rows) in [(1_099_511_627_776i64, 1), (1 << 18, 1 << 10)] {
            let text = format!("pgr-circuit v1\nname x\nwidth {width}\nrows {rows}\n");
            let err = from_text(&text).unwrap_err();
            let too_large = matches!(err, FormatError::Invalid(ModelError::TooLarge(_)));
            assert!(too_large, "{text}: {err}");
        }
    }

    /// What a parser made of a text: the canonical text of its circuit,
    /// or its error's message.
    fn outcome(parsed: &Result<Circuit, FormatError>) -> Result<String, String> {
        parsed.as_ref().map(to_text).map_err(|e| e.to_string())
    }

    /// The one-pass parser returns what the reference does on `text`,
    /// circuit byte for byte or error message for message; the one
    /// exception is a core the router cannot hold — empty, past
    /// `MAX_CHANNEL_COLUMNS`, or with a cell left of it — which only it
    /// refuses. Returns the error, if any.
    fn agree(text: &str) -> Option<FormatError> {
        let parsed = from_text(text);
        let core = match &parsed {
            Err(FormatError::Invalid(ModelError::EmptyCore(_))) => true,
            Err(FormatError::Invalid(ModelError::TooLarge(m))) => m.contains("channel columns"),
            Err(FormatError::Invalid(ModelError::OutOfCore(m))) => m.contains(" starts at "),
            _ => false,
        };
        if !core {
            let want = outcome(&reference::from_text(text));
            assert_eq!(outcome(&parsed), want, "{text:?}");
        }
        parsed.err()
    }

    /// Net names salted with four hex digits a line, as a benchmark does
    /// to vary its netlist text.
    fn salted(text: &str, seed: u64) -> String {
        let mut rng = pgr_geom::rng::rng_from_seed(seed);
        let mut out = String::with_capacity(text.len() + text.len() / 8);
        for line in text.lines() {
            match line.strip_prefix("net ").and_then(|r| r.split_once(' ')) {
                Some((name, pins)) => {
                    let salt = rng.next_u64() & 0xffff;
                    let _ = writeln!(out, "net {name}_{salt:04x} {pins}");
                }
                None => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    #[test]
    fn generated_circuits_parse_as_the_reference_parses_them() {
        for scale in [0.1, 1.0] {
            let c = crate::mcnc::Mcnc::Primary2.circuit_scaled(scale);
            for seed in [1997, 4242] {
                let text = salted(&to_text(&c), seed);
                assert!(agree(&text).is_none(), "scale {scale} seed {seed}");
            }
        }
    }

    /// A valid three-row text, one line per declaration.
    const BASE: &str = "pgr-circuit v1\nname edge case\nwidth 20\nrows 3\n\
        cell 0 0 4\ncell 0 4 4\ncell 1 0 4\ncell 2 8 4\n\
        pin 0 0 T 0\npin 1 1 B 1\npin 2 2 T 1\npin 3 3 B 0\npin 3 0 T 1\n\
        net n 0 1 2\nnet m 3 4\n";

    /// `BASE` with line `k` (0-based) replaced by `line`.
    fn with_line(k: usize, line: &str) -> String {
        let mut lines: Vec<&str> = BASE.lines().collect();
        lines[k] = line;
        lines.join("\n")
    }

    #[test]
    fn the_edge_corpus_parses_as_the_reference_parses_it() {
        let mut texts: Vec<String> = Vec::new();
        // Separators: every one `split_whitespace` knows, in place of the
        // spaces of the body, of the header too, and at the line ends.
        for sep in [
            "\t", "\x0B", "\x0C", "\r", "\u{a0}", "\u{3000}", "\u{85}", "\u{2028}",
        ] {
            let (header, body) = BASE.split_once('\n').unwrap();
            texts.push(format!("{header}\n{}", body.replace(' ', sep)));
            texts.push(BASE.replace(' ', sep));
            texts.push(BASE.replace('\n', &format!("{sep}\n{sep}")));
            texts.push(BASE.replace(' ', &format!(" {sep} ")));
        }
        texts.push(BASE.replace('\n', "\r\n"));
        texts.push(BASE.replace('\n', "\r\n").trim_end().to_string());
        texts.push(BASE.replace('\n', "\n\n  \t\n\u{3000}\n"));
        texts.push(BASE.trim_end().to_string());
        // Comments, indented or not, and a `#` that is not one.
        for comment in [
            "# c",
            "   # c",
            "\t#x y z",
            "#",
            "\u{3000}# wide",
            "#net n 0 1",
        ] {
            texts.push(BASE.replace("\nrows", &format!("\n{comment}\nrows")));
        }
        texts.push(with_line(1, "name a # b"));
        texts.push(with_line(1, "name"));
        texts.push(with_line(1, "name  a\u{3000}b\tc\u{a0}"));
        texts.push(with_line(1, "name ñame é"));
        texts.push(with_line(13, "net n 0 1 2 # c"));
        texts.push(with_line(13, "net ñ 0 1 2"));
        texts.push(with_line(4, "cell 0 0 4 trailing fields"));
        // Numbers: `+`, `-` on unsigned fields, overflow, junk.
        for line in [
            "width +20",
            "width -20",
            "width 1099511627776",
            "width 1099511627777",
            "width 99999999999999999999",
            "width 2O",
            "width 20é",
            "width",
            "rows +3",
            "rows -3",
            "rows 1048576",
            "rows 1048577",
            "rows 18446744073709551616",
            "rows",
        ] {
            texts.push(with_line(
                if line.starts_with("width") { 2 } else { 3 },
                line,
            ));
        }
        for line in [
            "cell +0 +0 +4",
            "cell -1 0 4",
            "cell 0 -1 4",
            "cell 0 0 -4",
            "cell 4294967296 0 4",
            "cell 0 0 4294967296",
            "cell 0 1099511627777 4",
            "cell 0 -1099511627777 4",
            "cell 0 0",
            "cell 0",
            "cell",
            "cell 3 0 4",
            "cell 0 2 4",
            "cell 0 0 40",
            "cell x 0 4",
            "cell 0 x 4",
            "cell 0 0 x",
        ] {
            texts.push(with_line(5, line));
        }
        for line in [
            "pin +1 +1 B 1",
            "pin -1 0 T 0",
            "pin 1 -1 T 0",
            "pin 1 4294967296 T 0",
            "pin 9 0 T 0",
            "pin 1 0 X 0",
            "pin 1 0 T 2",
            "pin 1 0 t 0",
            "pin 1 0 T",
            "pin 1 0",
            "pin 1",
            "pin",
            "pin 1 4 T 0",
        ] {
            texts.push(with_line(9, line));
        }
        for line in [
            "net n +0 +1 +2",
            "net n 0 -1 2",
            "net n 0 1 9",
            "net n 0 1 4294967296",
            "net n 0",
            "net n",
            "net",
            "net n 0 1 2 2",
            "net n 0 1 3",
            "net n 0 1",
        ] {
            texts.push(with_line(13, line));
        }
        texts.push(with_line(0, "pgr-circuit v2"));
        texts.push(with_line(0, "  pgr-circuit v1\u{3000}\r"));
        texts.push(with_line(0, "pgr-circuit  v1"));
        texts.push(with_line(0, "\u{feff}pgr-circuit v1"));
        texts.push(with_line(2, "depth 20"));
        texts.push(with_line(2, "WIDTH 20"));
        texts.push(with_line(2, "# width 20"));
        texts.push(with_line(3, "# rows 3"));
        texts.push(with_line(2, "width 0"));
        texts.push(with_line(3, "rows 0"));
        texts.extend(
            [
                "",
                "\n",
                "\r\n",
                "pgr-circuit v1",
                "pgr-circuit v1\n",
                " \n",
            ]
            .map(String::from),
        );
        texts.push("pgr-circuit v1\nwidth 20\n".into());
        texts.push("pgr-circuit v1\nrows 2\n".into());

        let mut kinds = std::collections::BTreeSet::new();
        for text in &texts {
            let kind = match agree(text) {
                None => "ok",
                Some(FormatError::Empty) => "Empty",
                Some(FormatError::Missing(_)) => "Missing",
                Some(FormatError::Syntax(..)) => "Syntax",
                Some(FormatError::RowRange { .. }) => "RowRange",
                Some(FormatError::Invalid(e)) => match e {
                    ModelError::BadId(_) => "BadId",
                    ModelError::Dangling(_) => "Dangling",
                    ModelError::Inconsistent(_) => "Inconsistent",
                    ModelError::Overlap(_) => "Overlap",
                    ModelError::OutOfCore(_) => "OutOfCore",
                    ModelError::DegenerateNet(_) => "DegenerateNet",
                    ModelError::DuplicatePin(_) => "DuplicatePin",
                    ModelError::TooLarge(_) => "TooLarge",
                    ModelError::EmptyCore(_) => "EmptyCore",
                },
            };
            kinds.insert(kind);
        }
        // Every kind a text can reach: `BadId` is never built, and
        // `TooLarge` is a core past the channel-column bound (`width
        // 1099511627776`), as 2^28 pins are out of reach and the format
        // caps rows below the model.
        let want = [
            "ok",
            "Empty",
            "Missing",
            "Syntax",
            "RowRange",
            "Dangling",
            "Inconsistent",
            "Overlap",
            "OutOfCore",
            "DegenerateNet",
            "DuplicatePin",
            "TooLarge",
            "EmptyCore",
        ];
        assert_eq!(
            kinds,
            want.into_iter().collect(),
            "kinds the corpus reached"
        );
    }

    /// Random byte edits of a small text, separators of every kind
    /// among the bytes spliced in: the two parsers agree on each.
    #[test]
    fn mutated_texts_parse_as_the_reference_parses_them() {
        const SPICE: [&str; 16] = [
            "0", "9", "-", "+", " ", "\t", "\n", "\r", "#", "\x0B", "\x0C", "\u{a0}", "\u{3000}",
            "T", "é", "n",
        ];
        let base = to_text(&generate(&GeneratorConfig {
            cells: 60,
            pins: 225,
            nets: 65,
            ..GeneratorConfig::small("mutate", 5)
        }));
        let mut rng = pgr_geom::rng::rng_from_seed(50);
        for _ in 0..2_000 {
            let mut text = base.clone();
            for _ in 0..rng.gen_range(1..=6usize) {
                let mut at = rng.gen_range(0..text.len());
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let spice = SPICE[rng.gen_range(0..SPICE.len())];
                if rng.gen_range(0..2u32) == 0 {
                    text.insert_str(at, spice);
                } else if let Some(c) = text[at..].chars().next() {
                    text.replace_range(at..at + c.len_utf8(), spice);
                }
            }
            agree(&text);
        }
    }

    #[test]
    fn out_of_order_cells_are_sorted_into_rows() {
        let text = "pgr-circuit v1\nname x\nwidth 20\nrows 1\ncell 0 10 4\ncell 0 0 4\npin 0 0 T 0\npin 1 1 B 1\nnet n 0 1\n";
        let c = from_text(text).unwrap();
        assert_eq!(
            c.row_cells(RowId(0)),
            &[CellId(1), CellId(0)],
            "sorted by x"
        );
    }
}
