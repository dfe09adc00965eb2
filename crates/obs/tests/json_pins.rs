//! The JSON reader's values, error messages and error offsets, pinned.
//!
//! Witness files, `stats` snapshots and every serve request and reply
//! go through [`Json::parse`], so a reader change that moves a value,
//! an error message or an error offset changes what those readers
//! accept and what they report. This test generates a seeded corpus
//! of documents: nested objects and arrays; strings with every escape,
//! `\u` escapes and surrogate pairs, multi-byte UTF-8, empty and long
//! runs; and negative, fractional, exponent and past-2^53 numbers. Each
//! document is parsed whole, at every prefix, and under seeded one-byte
//! corruptions: a raw control byte in a string, a dropped quote, a bad
//! escape and a lone surrogate. A few hand-written documents add what
//! the generator does not reach: the nesting limit, trailing
//! characters and malformed `\u` escapes. Every result folds into the
//! document's pin: a value as the test's own canonical rendering, an
//! error as its message and offset. A second table counts each error
//! message over the whole corpus, so the corpus is seen to reach every
//! error path.
//!
//! A change that only makes the reader faster must leave every literal
//! as it is; a failure prints the moved documents' new lines.

use std::fmt::Write as _;

use lfm_obs::json::Json;

/// Generated documents.
const DOCS: u64 = 48;

/// Deepest container nesting the generator builds.
const MAX_DEPTH: u32 = 3;

/// `(document, fold of its parse results)`.
#[rustfmt::skip]
const PINS: &[(u64, u64)] = &[
    (0, 0x4172bf7072ebe84f),
    (1, 0x16621d955a675240),
    (2, 0x88993d6555638e4e),
    (3, 0xff07fc93b75588ea),
    (4, 0xef4be3d0613b564e),
    (5, 0xd0658636f58f46e4),
    (6, 0x8536d73e4540fae0),
    (7, 0x96c85fae41e902a4),
    (8, 0x497bf908f1ff68cd),
    (9, 0xa60b60603c99f20e),
    (10, 0x098b86a5875cfa3a),
    (11, 0x258b612dc32a7e2a),
    (12, 0xd473ab1865a5ad3b),
    (13, 0x230631aad01ea4d9),
    (14, 0x9b89c2747498b17e),
    (15, 0x71f29223903652e1),
    (16, 0xc6e9e1803476b583),
    (17, 0x6b1f54d0baa32b0d),
    (18, 0x68c39a5fe84a51ef),
    (19, 0x8b4cc16ded31a2a1),
    (20, 0x0098156a1b8a506d),
    (21, 0x8f1e63564a1fe060),
    (22, 0x38fcc17dcb7f3497),
    (23, 0xf8d7cfc2d0ef5aa9),
    (24, 0xf95af3c0306e53b6),
    (25, 0x086a3f529c1a90fd),
    (26, 0xd56f038bb9637812),
    (27, 0xe383262e412e39dd),
    (28, 0xf2650d8a5f2f8916),
    (29, 0xa23f70596890d4c6),
    (30, 0xcc626cdb156e34a9),
    (31, 0x8993334f5acec142),
    (32, 0x6be764637eba04d6),
    (33, 0x903c0048473624ec),
    (34, 0xcc28ef872db4d3f3),
    (35, 0xc19a918eb08d6b72),
    (36, 0x42bfb8d1a6087351),
    (37, 0x94410f791a7c38ba),
    (38, 0x796e3ea31154bdab),
    (39, 0x6c48fa7dcad7de85),
    (40, 0x98b2551a4b52b660),
    (41, 0x1d0e8469679bdb01),
    (42, 0xce4edab1f7e61942),
    (43, 0xed6723a4079fec51),
    (44, 0x2ef104106a6da539),
    (45, 0xc3cc1b0d7ee467c5),
    (46, 0x79631d5cf50ab04c),
    (47, 0x927e1567b1c5c096),
    (48, 0xf20103b39a723493),
    (49, 0xa15d6f242aac7f2b),
    (50, 0xc2da8a94837da65d),
    (51, 0x0efbeeb74ac64c81),
    (52, 0x5b419484de8acc34),
    (53, 0xbf83f189248f8659),
    (54, 0x27a767483581150e),
    (55, 0x83ec924a8a4c591f),
    (56, 0x2ce65c4c316b9c59),
    (57, 0x908ac8af4eb8e7cb),
    (58, 0x504b75fbaf20b51b),
    (59, 0x80bcb447f22eed75),
    (60, 0xc8d1a2ff213f813b),
    (61, 0x1ba3d64a9b5037d4),
    (62, 0x1ccc206fe22597f3),
    (63, 0x41f74fb7c169a9c8),
    (64, 0x58273670cdc9475e),
    (65, 0x4f6e0c5774c824fe),
    (66, 0xb53f73d767ea783c),
    (67, 0xaeedfe112008876c),
    (68, 0xaca27ec1f4c0bb2c),
    (69, 0x10b2ec3b27b3f25c),
    (70, 0xe9a77ecfcb372350),
    (71, 0x35dbc9f4f380d846),
    (72, 0x7e8a66917b8fce3b),
    (73, 0x4f8dd93c37b489aa),
    (74, 0x513b9dd8f28c6051),
    (75, 0x111a19a765d6518a),
    (76, 0x3621c9f0337d5d6d),
    (77, 0xf7b0582401dc7631),
    (78, 0x288b82fdda265dbf),
];

/// `(error message, inputs that failed with it)` over the corpus.
#[rustfmt::skip]
const MESSAGES: &[(&str, u64)] = &[
    ("bad \\u escape digits", 21),
    ("bad code point", 17),
    ("bad escape sequence", 542),
    ("expected '\"'", 13),
    ("expected ',' or ']' in array", 525),
    ("expected ',' or '}' in object", 255),
    ("expected ':'", 274),
    ("expected 'false'", 56),
    ("expected 'null'", 69),
    ("expected 'true'", 34),
    ("expected digits after decimal point", 15),
    ("expected digits in exponent", 13),
    ("expected digits in number", 14),
    ("nesting too deep", 140),
    ("trailing characters after JSON document", 8),
    ("truncated \\u escape", 1576),
    ("unescaped control character in string", 54),
    ("unexpected character '#'", 1),
    ("unexpected character '+'", 2),
    ("unexpected character '.'", 3),
    ("unexpected character '\\'", 6),
    ("unexpected character ']'", 1),
    ("unexpected character 'c'", 1),
    ("unexpected character 'g'", 1),
    ("unexpected character 'ï'", 4),
    ("unexpected end of input", 882),
    ("unexpected end of input in object", 263),
    ("unpaired surrogate", 269),
    ("unterminated string", 3782),
];

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

const WHITESPACE: &[&str] = &["", "", "", " ", "\n", "\t ", "\r\n  "];
const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCXYZ0123456789 _-.,:;!?'{}[]/<>#@~";
const MULTIBYTE: &[&str] = &[
    "é",
    "µ",
    "→",
    "€",
    "中文",
    "😀",
    "𝄞",
    "\u{7f}",
    "\u{ffff}",
    "\u{10ffff}",
];
const SHORT_ESCAPES: &[&str] = &["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
const BMP: &[u32] = &[
    0x0000, 0x0001, 0x001f, 0x0041, 0x007f, 0x00e9, 0x00b5, 0x2192, 0x4e2d, 0xfffd, 0xffff,
];

fn ws(rng: &mut Rng, out: &mut String) {
    out.push_str(rng.pick(WHITESPACE));
}

/// `\u` and four hex digits of `unit`, each digit's case drawn.
fn unicode_escape(rng: &mut Rng, unit: u32, out: &mut String) {
    out.push_str("\\u");
    for digit in format!("{unit:04x}").chars() {
        out.push(if rng.chance(2) {
            digit.to_ascii_uppercase()
        } else {
            digit
        });
    }
}

/// A string literal, quotes included.
fn string(rng: &mut Rng, out: &mut String) {
    let pieces = match rng.below(8) {
        0 => 0,
        1 => 40 + rng.below(80),
        _ => 1 + rng.below(12),
    };
    out.push('"');
    for _ in 0..pieces {
        match rng.below(10) {
            0..=4 => {
                for _ in 0..1 + rng.below(8) {
                    out.push(rng.pick(ASCII) as char);
                }
            }
            5 => out.push_str(rng.pick(MULTIBYTE)),
            6 => out.push_str(rng.pick(SHORT_ESCAPES)),
            7 => {
                let unit = rng.pick(BMP);
                unicode_escape(rng, unit, out);
            }
            8 => {
                let high = 0xD800 + rng.below(0x400) as u32;
                let low = 0xDC00 + rng.below(0x400) as u32;
                unicode_escape(rng, high, out);
                unicode_escape(rng, low, out);
            }
            _ => {
                out.push_str(rng.pick(MULTIBYTE));
                out.push_str(rng.pick(SHORT_ESCAPES));
            }
        }
    }
    out.push('"');
}

fn digits(rng: &mut Rng, n: u64, out: &mut String) {
    for _ in 0..n {
        out.push(char::from(b'0' + rng.below(10) as u8));
    }
}

fn number(rng: &mut Rng, out: &mut String) {
    const FIXED: &[&str] = &[
        "0",
        "-0",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "1e400",
        "-2.5E-308",
        "0.1",
    ];
    if rng.chance(4) {
        out.push_str(rng.pick(FIXED));
        return;
    }
    if rng.chance(3) {
        out.push('-');
    }
    if rng.chance(5) {
        out.push('0');
    } else {
        out.push(char::from(b'1' + rng.below(9) as u8));
        let n = rng.below(20);
        digits(rng, n, out);
    }
    if rng.chance(2) {
        out.push('.');
        let n = 1 + rng.below(6);
        digits(rng, n, out);
    }
    if rng.chance(3) {
        out.push(rng.pick(&['e', 'E']));
        out.push_str(rng.pick(&["", "+", "-"]));
        let n = 1 + rng.below(3);
        digits(rng, n, out);
    }
}

fn value(rng: &mut Rng, depth: u32, out: &mut String) {
    let kinds = if depth >= MAX_DEPTH { 6 } else { 8 };
    match rng.below(kinds) {
        0 => out.push_str("null"),
        1 => out.push_str(rng.pick(&["true", "false"])),
        2 | 3 => number(rng, out),
        4 | 5 => string(rng, out),
        _ => container(rng, depth, out),
    }
}

/// An array or an object of up to four members.
fn container(rng: &mut Rng, depth: u32, out: &mut String) {
    let object = rng.chance(2);
    out.push(if object { '{' } else { '[' });
    ws(rng, out);
    for i in 0..rng.below(5) {
        if i > 0 {
            out.push(',');
            ws(rng, out);
        }
        if object {
            string(rng, out);
            ws(rng, out);
            out.push(':');
            ws(rng, out);
        }
        value(rng, depth + 1, out);
        ws(rng, out);
    }
    out.push(if object { '}' } else { ']' });
}

/// Hand-written documents for what the generator does not reach:
/// nesting at and past the limit, trailing characters, stray bytes
/// where a value or a key should start, and `\u` edge cases.
fn edge_documents() -> Vec<String> {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    let mut docs = vec![nested(129), nested(130), "{\"a\":".repeat(130) + "1"];
    docs.extend(
        [
            " \n\t",
            "{\"a\":1} x",
            "[1,2]]",
            "\"a\" \"b\"",
            "1 2",
            "truex",
            "nul",
            "-",
            "01",
            "1.",
            "1e",
            "1e+",
            ".5",
            "+1",
            "\u{feff}{}",
            "{\"a\":1,}",
            "[1,]",
            "{,}",
            "{\"a\"}",
            "{1:2}",
            "\"\"",
            "\"\\u0000\"",
            "\"\\uD800\\uDBFF\"",
            "\"\\uDC00\"",
            "\"\\u+041\"",
            "\"\\u00e\"",
            "\"\\u00\"",
            "\"\\u00é\"",
        ]
        .map(str::to_owned),
    );
    docs
}

/// Generated document `i`: most are a top-level object or array, some
/// a scalar.
fn document(i: u64) -> String {
    let mut rng = Rng(i.wrapping_mul(0x5DEE_CE66_D1CE_5EED) ^ 0x7E57_150E);
    let mut out = String::new();
    ws(&mut rng, &mut out);
    if rng.chance(6) {
        value(&mut rng, 0, &mut out);
    } else {
        container(&mut rng, 0, &mut out);
    }
    ws(&mut rng, &mut out);
    out
}

/// Where string content lies in a generated document.
#[derive(Default)]
struct Layout {
    /// Byte offsets of every quote, opening and closing.
    quotes: Vec<usize>,
    /// Offsets inside string content where a whole unit (a character
    /// or an escape) starts, and each closing quote's offset.
    boundaries: Vec<usize>,
    /// Offsets of each escape's backslash.
    escapes: Vec<usize>,
    /// `(high, low)` backslash offsets of each surrogate pair.
    pairs: Vec<(usize, usize)>,
}

/// The four hex digits at `at`, if there are four.
fn hex4(doc: &str, at: usize) -> Option<u32> {
    doc.get(at..at + 4)
        .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
        .map(|digits| u32::from_str_radix(digits, 16).expect("hex digits"))
}

fn layout(doc: &str) -> Layout {
    let bytes = doc.as_bytes();
    let mut layout = Layout::default();
    let mut in_string = false;
    let mut pos = 0;
    let mut pending_high = None;
    while pos < bytes.len() {
        let b = bytes[pos];
        if !in_string {
            if b == b'"' {
                layout.quotes.push(pos);
                in_string = true;
            }
            pos += 1;
            continue;
        }
        layout.boundaries.push(pos);
        match b {
            b'"' => {
                layout.quotes.push(pos);
                in_string = false;
                pending_high = None;
                pos += 1;
            }
            b'\\' if bytes.get(pos + 1) == Some(&b'u') => {
                layout.escapes.push(pos);
                let unit = hex4(doc, pos + 2);
                match (pending_high.take(), unit) {
                    (_, Some(0xD800..=0xDBFF)) => pending_high = Some(pos),
                    (Some(high), Some(0xDC00..=0xDFFF)) => layout.pairs.push((high, pos)),
                    _ => {}
                }
                pos += if unit.is_some() { 6 } else { 2 };
            }
            b'\\' => {
                layout.escapes.push(pos);
                pending_high = None;
                pos += 1 + doc[pos + 1..].chars().next().map_or(0, char::len_utf8);
            }
            _ => {
                pending_high = None;
                pos += doc[pos..].chars().next().unwrap().len_utf8();
            }
        }
    }
    layout
}

/// Seeded one-byte corruptions of `doc`, each tagged with its kind.
fn corruptions(doc: &str, rng: &mut Rng) -> Vec<(&'static str, String)> {
    let layout = layout(doc);
    let mut out = Vec::new();
    let mut edit = |kind, at: usize, len: usize, with: &[u8]| {
        let mut bytes = doc.as_bytes().to_vec();
        bytes.splice(at..at + len, with.iter().copied());
        out.push((kind, String::from_utf8(bytes).expect("edits keep UTF-8")));
    };
    if !layout.boundaries.is_empty() {
        let at = rng.pick(&layout.boundaries);
        let control = rng.below(0x20) as u8;
        edit("control", at, 0, &[control]);
    }
    if !layout.quotes.is_empty() {
        let at = rng.pick(&layout.quotes);
        edit("dropped quote", at, 1, b"");
    }
    if !layout.escapes.is_empty() {
        let at = rng.pick(&layout.escapes);
        if hex4(doc, at + 2).is_some() && rng.chance(2) {
            let digit = at + 2 + rng.below(4) as usize;
            let with = rng.pick(b"gG+-. z");
            edit("bad escape", digit, 1, &[with]);
        } else {
            let with = rng.pick(b"aqxU0' \t");
            edit("bad escape", at + 1, 1, &[with]);
        }
    }
    if !layout.pairs.is_empty() {
        let (high, low) = rng.pick(&layout.pairs);
        let at = if rng.chance(2) { high } else { low };
        let with = rng.pick(b"xX_ ");
        edit("lone surrogate", at, 1, &[with]);
    }
    out
}

/// The canonical rendering of a parsed value: numbers keep their
/// lexeme, and every string character outside printable ASCII (and
/// every quote and backslash) is written as its code point.
fn render(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Num(lexeme) => write!(out, "#{lexeme}").unwrap(),
        Json::Str(s) => render_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(key, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if (c == ' ' || c.is_ascii_graphic()) && c != '"' && c != '\\' {
            out.push(c);
        } else {
            write!(out, "<{:x}>", u32::from(c)).unwrap();
        }
    }
    out.push('"');
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the corpus folds and counts.
struct Folder {
    messages: Vec<(String, u64)>,
    inputs: u64,
    values: u64,
    line: String,
}

impl Folder {
    /// Folds the parse of `input` into `hash`.
    fn fold(&mut self, hash: u64, input: &str) -> u64 {
        self.inputs += 1;
        self.line.clear();
        match Json::parse(input) {
            Ok(value) => {
                self.values += 1;
                self.line.push_str("ok ");
                render(&value, &mut self.line);
            }
            Err(err) => {
                write!(self.line, "error {} @{}", err.message, err.offset).unwrap();
                match self.messages.iter_mut().find(|(m, _)| *m == err.message) {
                    Some((_, n)) => *n += 1,
                    None => self.messages.push((err.message, 1)),
                }
            }
        }
        fnv(fnv(hash, self.line.as_bytes()), b"\n")
    }
}

#[test]
fn parse_results_are_pinned() {
    let mut folder = Folder {
        messages: Vec::new(),
        inputs: 0,
        values: 0,
        line: String::new(),
    };
    let mut moved = Vec::new();
    let mut kinds = Vec::new();
    let docs: Vec<String> = (0..DOCS).map(document).chain(edge_documents()).collect();
    for (i, doc) in (0u64..).zip(&docs) {
        let mut fold = folder.fold(0xcbf2_9ce4_8422_2325, doc);
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            fold = folder.fold(fold, &doc[..cut]);
        }
        let mut rng = Rng(i ^ 0xC022_0B7E);
        for (kind, corrupt) in corruptions(doc, &mut rng) {
            fold = fnv(fold, kind.as_bytes());
            fold = folder.fold(fold, &corrupt);
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        match PINS.iter().find(|pin| pin.0 == i) {
            Some(&pin) if pin == (i, fold) => {}
            _ => moved.push(format!("    ({i}, {fold:#018x}),")),
        }
    }
    assert_eq!(
        kinds,
        ["control", "dropped quote", "bad escape", "lone surrogate"],
        "every corruption kind occurs"
    );
    let mut messages = folder.messages;
    messages.sort();
    let tally: Vec<String> = messages
        .iter()
        .map(|(message, n)| format!("    ({message:?}, {n}),"))
        .collect();
    let pinned: Vec<String> = MESSAGES
        .iter()
        .map(|(message, n)| format!("    ({message:?}, {n}),"))
        .collect();
    println!(
        "{} inputs, {} values, {} errors",
        folder.inputs,
        folder.values,
        folder.inputs - folder.values
    );
    assert!(
        moved.is_empty(),
        "{} documents' parses moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(PINS.len(), docs.len(), "one pin per document");
    assert!(
        tally == pinned,
        "error messages moved:\n{}",
        tally.join("\n")
    );
}
