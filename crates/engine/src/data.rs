//! The engine's data model: records, seeded generators, per-record
//! operator semantics, and the output digest.
//!
//! Everything here is **canonical** — a pure function of the seed and the
//! record, with no dependence on partitioning, worker count, or execution
//! order. Both the multi-threaded engine ([`crate::exec`]) and the
//! single-threaded reference ([`crate::reference`]) apply these exact
//! semantics; what differs between them is only the execution *strategy*,
//! which is precisely what the byte-identity tests pin down.

use robopt_plan::rng::mix64;

/// Longest text a [`Text`] stores inside the record. Picked by measurement
/// (DESIGN §11): the generators' words are 3 bytes and their lines 11–31,
/// so 30 keeps every word and five lines in six off the heap while a
/// `Text` stays 32 bytes and a [`Record`] 48.
const TEXT_INLINE: usize = 30;

/// A record's text payload: up to `TEXT_INLINE` bytes live in the record
/// itself, so cloning or dropping a word never touches the allocator;
/// longer payloads live on the heap. Constructors keep the form canonical
/// — inline whenever the bytes fit, zero padding after them — but equality,
/// order and the digest only ever look at the bytes, and bytewise order of
/// UTF-8 is `str`'s order.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; TEXT_INLINE] },
    Heap(Box<[u8]>),
}

impl Text {
    /// The empty text.
    pub const fn new() -> Self {
        Text(Repr::Inline {
            len: 0,
            bytes: [0; TEXT_INLINE],
        })
    }

    /// The payload bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Whether there is no payload (a purely numeric record).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// The maximal runs of non-whitespace bytes, split as
    /// `str::split_ascii_whitespace` splits: ASCII whitespace bytes never
    /// occur inside a multi-byte UTF-8 sequence, so words of valid UTF-8
    /// are valid UTF-8.
    pub fn words(&self) -> impl Iterator<Item = &[u8]> {
        self.as_bytes()
            .split(u8::is_ascii_whitespace)
            .filter(|word| !word.is_empty())
    }
}

impl Default for Text {
    fn default() -> Self {
        Text::new()
    }
}

impl From<&[u8]> for Text {
    fn from(payload: &[u8]) -> Self {
        let mut bytes = [0; TEXT_INLINE];
        match bytes.get_mut(..payload.len()) {
            Some(head) => {
                head.copy_from_slice(payload);
                Text(Repr::Inline {
                    len: payload.len() as u8,
                    bytes,
                })
            }
            None => Text(Repr::Heap(payload.into())),
        }
    }
}

impl From<&str> for Text {
    fn from(payload: &str) -> Self {
        payload.as_bytes().into()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl Ord for Text {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&String::from_utf8_lossy(self.as_bytes()), f)
    }
}

/// One in-flight record: a 64-bit grouping key, a numeric payload, and an
/// optional text payload (lines for text sources, words after a split).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Grouping/join key.
    pub key: u64,
    /// Numeric payload (counts, values, coordinates).
    pub num: f64,
    /// Text payload; empty for purely numeric streams.
    pub text: Text,
}

/// Total order over records: `(key, num bit pattern, text)`. Any total
/// order works for canonicalization; bit-pattern comparison keeps it exact
/// on floats. Equal elements are fully identical records, so merging
/// sorted runs reproduces the full sort byte-for-byte.
pub fn record_cmp(a: &Record, b: &Record) -> std::cmp::Ordering {
    (a.key, a.num.to_bits(), &a.text).cmp(&(b.key, b.num.to_bits(), &b.text))
}

/// FNV-1a 64-bit over a byte string — keys words and lines.
pub fn fnv1a(text: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Vocabulary size for generated text; squared-uniform sampling skews
/// toward low word ids so real duplicate groups form.
const VOCAB: u64 = 96;

#[inline]
fn unit(v: u64) -> f64 {
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The `row`-th record of a seeded source operator. Seeding is per row
/// index — never per partition — so chunking can never change the data.
pub fn source_record(
    kind: robopt_plan::OperatorKind,
    seed: u64,
    op: u32,
    row: u64,
    n_rows: u64,
) -> Record {
    let mut s = mix64(seed ^ mix64((u64::from(op) << 32) ^ row));
    match kind {
        robopt_plan::OperatorKind::TextFileSource => {
            // 3–8 words of `wXX`, single spaces between: at most 31 bytes.
            let n_words = 3 + s % 6;
            let mut line = [b' '; 32];
            for w in 0..n_words {
                s = mix64(s.wrapping_add(w));
                let u = unit(s);
                let idx = ((u * u) * VOCAB as f64) as u64;
                let at = 4 * w as usize;
                line[at] = b'w';
                write_hex2(&mut line[at + 1..at + 3], idx.min(VOCAB - 1));
            }
            Record {
                key: row,
                num: 1.0,
                text: line[..4 * n_words as usize - 1].into(),
            }
        }
        robopt_plan::OperatorKind::TableSource => Record {
            key: mix64(s ^ 0x7AB1) % (n_rows / 4).max(1),
            num: unit(mix64(s ^ 0x0A11)) * 100.0,
            text: Text::new(),
        },
        // CollectionSource and any non-source kind fed no input.
        _ => Record {
            key: row,
            num: unit(s) * 1000.0,
            text: Text::new(),
        },
    }
}

fn write_hex2(text: &mut [u8], v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    text[0] = HEX[((v >> 4) & 0xF) as usize];
    text[1] = HEX[(v & 0xF) as usize];
}

/// `Map` / `MapPartitions` semantics: re-key injectively, keep payloads.
/// In place, for an executor that owns the record.
#[inline]
pub fn rekey_record(r: &mut Record) {
    r.key = mix64(r.key);
}

/// [`rekey_record`] on a copy, for an executor that only borrows it.
pub fn map_record(r: &Record) -> Record {
    let mut out = r.clone();
    rekey_record(&mut out);
    out
}

/// `FlatMap` semantics: text records split into one word record apiece
/// (keyed by the word — this is what makes WordCount really count words);
/// numeric records split in two.
pub fn flat_map_record(r: &Record, out: &mut Vec<Record>) {
    if r.text.is_empty() {
        out.push(Record {
            key: mix64(r.key ^ 1),
            num: r.num * 0.5,
            text: Text::new(),
        });
        out.push(Record {
            key: mix64(r.key ^ 2),
            num: r.num * 0.5 + 1.0,
            text: Text::new(),
        });
    } else {
        for word in r.text.words() {
            out.push(Record {
                key: fnv1a(word),
                num: 1.0,
                text: word.into(),
            });
        }
    }
}

/// How many records [`flat_map_record`] pushes for `r` — lets an executor
/// size its output once instead of growing it.
pub fn flat_map_len(r: &Record) -> usize {
    if r.text.is_empty() {
        2
    } else {
        r.text.words().count()
    }
}

/// `Filter` / `Sample` keep-decision: a seeded coin keyed on the record.
pub fn keep_record(r: &Record, selectivity: f64, salt: u64) -> bool {
    let threshold = (selectivity.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
    mix64(r.key ^ salt) & 0xFFFF_FFFF < threshold
}

/// Salt for `Filter` coins.
pub const FILTER_SALT: u64 = 0xF117;
/// Salt for `Sample` coins.
pub const SAMPLE_SALT: u64 = 0x5A3B;
/// Salt deriving a PageRank edge destination from an edge record key.
pub const PAGERANK_DST_SALT: u64 = 0xED6E;
/// Salt deriving a k-means point's second coordinate from its key.
pub const KMEANS_Y_SALT: u64 = 0x2D2D;

/// A record viewed as a 2-D point: `x` is the numeric payload, `y` is
/// derived deterministically from the key.
pub fn point_of(r: &Record) -> (f64, f64) {
    let y = (mix64(r.key ^ KMEANS_Y_SALT) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 1000.0;
    (r.num, y)
}

/// Nearest-centroid assignment with ties broken toward the lowest cluster
/// index — the per-point step of Lloyd's algorithm.
pub fn assign_point(x: f64, y: f64, centroids: &[(f64, f64)]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (j, (cx, cy)) in centroids.iter().enumerate() {
        let (dx, dy) = (x - cx, y - cy);
        let d = dx * dx + dy * dy;
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

/// Order-dependent digest of a canonical record stream.
pub fn digest_records(records: &[Record]) -> u64 {
    let mut h = 0x0D1E_57A7u64 ^ records.len() as u64;
    for r in records {
        h = mix64(h ^ r.key);
        h = mix64(h ^ r.num.to_bits());
        let text = r.text.as_bytes();
        h = mix64(h ^ text.len() as u64);
        for b in text {
            h = mix64(h ^ u64::from(*b));
        }
    }
    h
}

/// Fold the per-terminal stream digests (op-id ascending) into one plan
/// output digest — the value `tests/determinism.rs` pins across processes
/// and worker counts.
pub fn digest_terminals(terminals: &[(u32, Vec<Record>)]) -> u64 {
    let mut h = 0x7E61_0E0Du64;
    for (op, records) in terminals {
        h = mix64(h ^ u64::from(*op));
        h = mix64(h ^ digest_records(records));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::OperatorKind;

    #[test]
    fn text_round_trips_every_length_around_the_inline_limit() {
        for len in [0, 1, TEXT_INLINE - 1, TEXT_INLINE, TEXT_INLINE + 1, 200] {
            let payload: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let text = Text::from(payload.as_slice());
            assert_eq!(text.as_bytes(), payload.as_slice(), "len {len}");
            assert_eq!(text.is_empty(), len == 0, "len {len}");
            let inline = matches!(text.0, Repr::Inline { .. });
            assert_eq!(inline, len <= TEXT_INLINE, "len {len}: canonical form");
            assert_eq!(text.clone(), text, "len {len}");
        }
        assert_eq!(Text::new(), Text::from(""));
        assert_eq!(Text::default().as_bytes(), b"");
        assert_eq!(std::mem::size_of::<Text>(), 32);
        assert_eq!(std::mem::size_of::<Record>(), 48);
    }

    #[test]
    fn text_order_is_str_order() {
        // Shared prefixes, proper prefixes, multi-byte UTF-8 (whose byte
        // order is code-point order), lengths on both sides of the limit.
        let mut pool: Vec<String> = vec![String::new(), "w".into(), "w0".into(), "w00".into()];
        let mut rng = robopt_plan::rng::SplitMix64::new(0x7E87);
        let alphabet = [
            "a", "b", "w", "0", " ", "\0", "é", "ß", "中", "😀", "\u{7f}",
        ];
        for _ in 0..300 {
            let stem = pool[rng.gen_range(pool.len())].clone();
            let mut next = stem;
            for _ in 0..1 + rng.gen_range(12) {
                next.push_str(alphabet[rng.gen_range(alphabet.len())]);
            }
            pool.push(next);
        }
        assert!(pool.iter().any(|s| s.len() > TEXT_INLINE));
        for a in &pool {
            for b in &pool {
                let (ta, tb) = (Text::from(a.as_str()), Text::from(b.as_str()));
                assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ta == tb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn inline_and_heap_forms_of_equal_content_are_equal() {
        // Constructors never build the heap form of a short payload, but
        // nothing downstream may depend on that.
        for payload in ["", "w3c", "w00 w1f w5e"] {
            let inline = Text::from(payload);
            let heap = Text(Repr::Heap(payload.as_bytes().into()));
            assert_eq!(inline, heap);
            assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Equal);
            assert_eq!(heap.cmp(&Text::from("w3d")), std::cmp::Ordering::Less);
            let record = |text| Record {
                key: 9,
                num: 2.0,
                text,
            };
            assert_eq!(
                digest_records(&[record(inline)]),
                digest_records(&[record(heap)])
            );
        }
    }

    #[test]
    fn words_split_like_str_split_ascii_whitespace() {
        for line in [
            "",
            " ",
            "w00",
            "w00 w1f",
            "  w00\t\tw1f \n",
            "é ß\u{a0}中 x",
        ] {
            let text = Text::from(line);
            let got: Vec<&[u8]> = text.words().collect();
            let want: Vec<&[u8]> = line.split_ascii_whitespace().map(str::as_bytes).collect();
            assert_eq!(got, want, "{line:?}");
            let record = Record {
                key: 0,
                num: 1.0,
                text,
            };
            let mut out = Vec::new();
            flat_map_record(&record, &mut out);
            assert_eq!(out.len(), flat_map_len(&record), "{line:?}");
        }
    }

    #[test]
    fn digest_of_a_fixed_stream_is_what_it_was_before_text_moved_inline() {
        // Values computed by the `String`-backed records of the commit
        // before the format change: the digest function did not move.
        let stream = [
            Record {
                key: 0,
                num: 0.0,
                text: Text::new(),
            },
            Record {
                key: 1,
                num: -0.0,
                text: "w0a".into(),
            },
            Record {
                key: u64::MAX,
                num: 1.5,
                text: "w00 w1f w5e".into(),
            },
            Record {
                key: 42,
                num: f64::INFINITY,
                text: "é".repeat(40).as_str().into(),
            },
        ];
        assert_eq!(digest_records(&stream), 0xdf20_8711_c8f4_6ed4);
        assert_eq!(digest_records(&[]), 0x0d1e_57a7);
        assert_eq!(
            digest_terminals(&[(3, stream.to_vec()), (5, Vec::new())]),
            0x7588_d3ca_bd60_bde8
        );
    }

    #[test]
    fn source_records_depend_only_on_row_index() {
        for kind in [
            OperatorKind::TextFileSource,
            OperatorKind::TableSource,
            OperatorKind::CollectionSource,
        ] {
            let a = source_record(kind, 7, 0, 42, 1000);
            let b = source_record(kind, 7, 0, 42, 1000);
            assert_eq!(a, b);
            let c = source_record(kind, 7, 0, 43, 1000);
            assert_ne!(a, c, "{kind:?} rows must differ");
        }
    }

    #[test]
    fn text_sources_generate_skewed_words() {
        let mut words = std::collections::BTreeMap::new();
        for row in 0..2000u64 {
            let r = source_record(OperatorKind::TextFileSource, 1, 0, row, 2000);
            for w in r.text.words() {
                *words.entry(w.to_vec()).or_insert(0usize) += 1;
            }
        }
        assert!(words.len() > 20, "vocabulary too small: {}", words.len());
        let max = words.values().copied().max().unwrap_or(0);
        let min = words.values().copied().min().unwrap_or(0);
        assert!(max > 4 * min.max(1), "distribution should be skewed");
    }

    #[test]
    fn record_cmp_is_a_total_order_on_float_bits() {
        let a = Record {
            key: 1,
            num: 0.0,
            text: Text::new(),
        };
        let b = Record {
            key: 1,
            num: -0.0,
            text: Text::new(),
        };
        assert_ne!(record_cmp(&a, &b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Record {
            key: 1,
            num: 1.0,
            text: "x".into(),
        };
        let b = Record {
            key: 2,
            num: 2.0,
            text: "y".into(),
        };
        assert_ne!(
            digest_records(&[a.clone(), b.clone()]),
            digest_records(&[b, a])
        );
    }
}
