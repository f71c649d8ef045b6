//! Column chunk encodings.
//!
//! Each chunk holds one column's values for a contiguous slice of rows:
//!
//! * **Str** — chunk-local dictionary (varint count, then varint-length
//!   prefixed UTF-8 entries in first-appearance order), followed by the
//!   row count and zigzag-delta varints of dictionary indices. Campaign,
//!   run and metric names repeat across thousands of rows, so the indices
//!   delta to zero almost everywhere.
//! * **U64 / I64** — row count, then zigzag varints of wrapping deltas
//!   between consecutive values (first value deltas against 0). This is
//!   the cumulative-counter layout borrowed from the probe machinery.
//! * **F64** — row count, then raw little-endian IEEE bits per value.
//!   Floats round-trip *exactly*, which the golden round-trip test pins.
//!
//! Numeric chunks also carry a min/max zone map (NaN excluded) in the
//! segment footer so predicate scans can skip chunks wholesale. String
//! chunks decode to their dictionary plus one id per row, and stay that
//! way: queries test and group ids, compaction remaps them.
//!
//! Every decoder bounds what a count read from the file may reserve by
//! the bytes left to hold it, so a corrupt count is an error, not an
//! allocation failure.

use std::collections::HashMap;

use crate::schema::{ColumnType, Value};
use crate::varint::{get_varint, put_varint, unzigzag, zigzag};

/// Decoded values of one chunk of one column. Strings stay dictionary
/// encoded. Decoders append, so compaction also uses this type to hold
/// many chunks' cells back to back (see [`decode_into`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    Str(StrColumn),
    U64(Vec<u64>),
    I64(Vec<i64>),
    F64(Vec<f64>),
}

/// A dictionary-encoded string column: each cell is an index into
/// `dict`. A decoded chunk's dictionary holds distinct entries in
/// first-appearance order; a concatenation of chunks holds their
/// dictionaries back to back, so an entry may repeat.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StrColumn {
    pub dict: Vec<String>,
    pub ids: Vec<u32>,
}

impl StrColumn {
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.ids[i] as usize]
    }
}

impl ColumnData {
    /// An empty column of type `ty`.
    pub fn empty(ty: ColumnType) -> ColumnData {
        match ty {
            ColumnType::Str => ColumnData::Str(StrColumn::default()),
            ColumnType::U64 => ColumnData::U64(Vec::new()),
            ColumnType::I64 => ColumnData::I64(Vec::new()),
            ColumnType::F64 => ColumnData::F64(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Str(v) => v.ids.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Str(v) => Value::Str(v.get(i).to_string()),
            ColumnData::U64(v) => Value::U64(v[i]),
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
        }
    }
}

/// Min/max over a chunk's numeric values, NaN excluded. `None` when the
/// chunk has no finite values (all-NaN float chunks keep no zone map and
/// are never pruned).
pub fn zone_of(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    let mut zone: Option<(f64, f64)> = None;
    for v in values {
        if v.is_nan() {
            continue;
        }
        zone = Some(match zone {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }
    zone
}

/// The dictionary of one string chunk being written: distinct entries in
/// first-appearance order.
#[derive(Default)]
pub(crate) struct DictBuilder<'a> {
    entries: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
    /// The id of the last interned string: consecutive rows mostly repeat
    /// their campaign, run and kind, and a compare is cheaper than a hash.
    last: Option<(&'a str, u32)>,
    /// Output id per slot of a dictionary-encoded source (`u32::MAX` =
    /// not seen yet), so each source entry is hashed once per chunk.
    memo: Vec<u32>,
}

impl<'a> DictBuilder<'a> {
    /// The chunk id of `s`, adding it to the dictionary on first sight.
    pub(crate) fn intern(&mut self, s: &'a str) -> u32 {
        if let Some((last, id)) = self.last {
            // Lengths first: `memcmp` of two empty strings' dangling
            // pointers costs ~100 ns on some hosts, and empty cells are
            // common (unused string columns).
            if last.len() == s.len() && (s.is_empty() || last == s) {
                return id;
            }
        }
        let next = self.entries.len() as u32;
        let id = *self.index.entry(s).or_insert(next);
        if id == next {
            self.entries.push(s);
        }
        self.last = Some((s, id));
        id
    }

    /// The chunk id of `source[slot]`, where `source` is a (possibly
    /// concatenated) dictionary whose slots the caller's cells index.
    pub(crate) fn intern_slot(&mut self, source: &'a [String], slot: u32) -> u32 {
        if self.memo.len() < source.len() {
            self.memo.resize(source.len(), u32::MAX);
        }
        let memo = self.memo[slot as usize];
        if memo != u32::MAX {
            return memo;
        }
        let id = self.intern(&source[slot as usize]);
        self.memo[slot as usize] = id;
        id
    }

    pub(crate) fn entries(&self) -> &[&'a str] {
        &self.entries
    }

    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

/// A capacity for `count` items of at least `min_bytes` bytes each when
/// only `left` bytes remain: a corrupt count can reserve no more than the
/// buffer could hold, never an allocation the process cannot survive.
pub(crate) fn capped(count: u64, left: usize, min_bytes: usize) -> usize {
    count.min((left / min_bytes) as u64) as usize
}

/// Appends a string chunk: the dictionary, then the row count and the
/// zigzag deltas of the rows' dictionary ids.
pub fn encode_str(out: &mut Vec<u8>, dict: &[&str], ids: &[u32]) {
    put_varint(out, dict.len() as u64);
    for entry in dict {
        put_varint(out, entry.len() as u64);
        out.extend_from_slice(entry.as_bytes());
    }
    put_varint(out, ids.len() as u64);
    let mut prev = 0i64;
    for &id in ids {
        let id = i64::from(id);
        put_varint(out, zigzag(id.wrapping_sub(prev)));
        prev = id;
    }
}

/// Decodes a string chunk onto `out`: its dictionary is appended whole
/// and its rows' ids are offset past the entries already there, so a
/// column can hold many chunks back to back.
pub fn decode_str(buf: &[u8], out: &mut StrColumn) -> Result<(), String> {
    let mut pos = 0;
    let dict_n = get_varint(buf, &mut pos)?;
    let base = out.dict.len() as u64;
    if base
        .checked_add(dict_n)
        .is_none_or(|n| n > u64::from(u32::MAX))
    {
        return Err(format!("string chunk dictionary of {dict_n} entries"));
    }
    // Every entry costs at least its one-byte length varint.
    out.dict.reserve(capped(dict_n, buf.len() - pos, 1));
    for _ in 0..dict_n {
        let len = get_varint(buf, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| "truncated string chunk dictionary".to_string())?;
        let entry = std::str::from_utf8(&buf[pos..end])
            .map_err(|e| format!("non-UTF-8 dictionary entry: {e}"))?;
        out.dict.push(entry.to_string());
        pos = end;
    }
    let rows = get_varint(buf, &mut pos)?;
    out.ids.reserve(capped(rows, buf.len() - pos, 1));
    let mut prev = 0i64;
    for _ in 0..rows {
        let delta = unzigzag(get_varint(buf, &mut pos)?);
        let idx = prev.wrapping_add(delta);
        prev = idx;
        if !(0..dict_n as i64).contains(&idx) {
            return Err(format!("string chunk index {idx} out of dictionary range"));
        }
        out.ids.push((base + idx as u64) as u32);
    }
    Ok(())
}

pub fn encode_u64(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    let mut prev = 0u64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Decodes a u64 chunk, appending its cells to `out`.
pub fn decode_u64(buf: &[u8], out: &mut Vec<u64>) -> Result<(), String> {
    let mut pos = 0;
    let rows = get_varint(buf, &mut pos)?;
    out.reserve(capped(rows, buf.len() - pos, 1));
    let mut prev = 0u64;
    for _ in 0..rows {
        let delta = unzigzag(get_varint(buf, &mut pos)?);
        prev = prev.wrapping_add(delta as u64);
        out.push(prev);
    }
    Ok(())
}

pub fn encode_i64(out: &mut Vec<u8>, values: &[i64]) {
    put_varint(out, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
}

/// Decodes an i64 chunk, appending its cells to `out`.
pub fn decode_i64(buf: &[u8], out: &mut Vec<i64>) -> Result<(), String> {
    let mut pos = 0;
    let rows = get_varint(buf, &mut pos)?;
    out.reserve(capped(rows, buf.len() - pos, 1));
    let mut prev = 0i64;
    for _ in 0..rows {
        prev = prev.wrapping_add(unzigzag(get_varint(buf, &mut pos)?));
        out.push(prev);
    }
    Ok(())
}

pub fn encode_f64(out: &mut Vec<u8>, values: &[f64]) {
    put_varint(out, values.len() as u64);
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Decodes an f64 chunk, appending its cells to `out`.
pub fn decode_f64(buf: &[u8], out: &mut Vec<f64>) -> Result<(), String> {
    let mut pos = 0;
    let rows = get_varint(buf, &mut pos)?;
    let cells = &buf[pos..];
    if rows > (cells.len() / 8) as u64 {
        return Err("truncated f64 chunk".to_string());
    }
    out.extend(
        cells
            .chunks_exact(8)
            .take(rows as usize)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk")))),
    );
    Ok(())
}

/// Decodes one chunk column onto `out`, whose type picks the decoder.
pub fn decode_into(buf: &[u8], out: &mut ColumnData) -> Result<(), String> {
    match out {
        ColumnData::Str(v) => decode_str(buf, v),
        ColumnData::U64(v) => decode_u64(buf, v),
        ColumnData::I64(v) => decode_i64(buf, v),
        ColumnData::F64(v) => decode_f64(buf, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    /// A chunk buffer that claims `count` cells but holds only `tail`.
    fn huge_count(count: u64, tail: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, count);
        buf.extend_from_slice(tail);
        buf
    }

    /// Runs an appending decoder on an empty column.
    fn dec<T: Default>(
        decode: fn(&[u8], &mut T) -> Result<(), String>,
        buf: &[u8],
    ) -> Result<T, String> {
        let mut out = T::default();
        decode(buf, &mut out).map(|()| out)
    }

    fn encode_strs(values: &[&str]) -> Vec<u8> {
        let mut dict = DictBuilder::default();
        let ids: Vec<u32> = values.iter().map(|v| dict.intern(v)).collect();
        enc(|out| encode_str(out, dict.entries(), &ids))
    }

    #[test]
    fn str_round_trip_and_dict_sharing() {
        let values = ["probe", "probe", "report", "probe", "", "report"];
        let buf = encode_strs(&values);
        let col = dec(decode_str, &buf).unwrap();
        let back: Vec<&str> = (0..values.len()).map(|i| col.get(i)).collect();
        assert_eq!(back, values);
        // Dictionary holds 3 distinct entries, so repeats cost ~1 byte each.
        assert_eq!(col.dict, ["probe", "report", ""]);
        assert!(
            buf.len() < 40,
            "dict encoding too large: {} bytes",
            buf.len()
        );
    }

    #[test]
    fn slot_interning_merges_repeated_source_entries() {
        // Two source dictionaries back to back, sharing "b": the output
        // dictionary is first-appearance over the strings, not the slots.
        let source: Vec<String> = ["a", "b", "b", "c"].map(String::from).to_vec();
        let mut dict = DictBuilder::default();
        let ids: Vec<u32> = [1, 3, 2, 0, 1]
            .iter()
            .map(|&s| dict.intern_slot(&source, s))
            .collect();
        assert_eq!(dict.entries(), ["b", "c", "a"]);
        assert_eq!(ids, [0, 1, 0, 2, 0]);
    }

    #[test]
    fn decoding_appends_chunks_back_to_back() {
        let mut col = ColumnData::empty(ColumnType::Str);
        decode_into(&encode_strs(&["a", "b", "a"]), &mut col).unwrap();
        decode_into(&encode_strs(&["b", "c"]), &mut col).unwrap();
        let ColumnData::Str(s) = &col else {
            unreachable!()
        };
        assert_eq!(s.dict, ["a", "b", "b", "c"]);
        assert_eq!(s.ids, [0, 1, 0, 2, 3]);
        let mut nums = ColumnData::empty(ColumnType::U64);
        decode_into(&enc(|out| encode_u64(out, &[5, 3])), &mut nums).unwrap();
        decode_into(&enc(|out| encode_u64(out, &[9])), &mut nums).unwrap();
        assert_eq!(nums, ColumnData::U64(vec![5, 3, 9]));
    }

    #[test]
    fn u64_round_trip_including_decreasing() {
        let values = [0u64, 1, 1, 100, 50, u64::MAX, 3];
        let buf = enc(|out| encode_u64(out, &values));
        assert_eq!(dec(decode_u64, &buf).unwrap(), values);
    }

    #[test]
    fn u64_monotone_counters_compress() {
        // Cumulative counters advancing by small steps: ~1 byte per row.
        let values: Vec<u64> = (0..1000u64).map(|i| 5_000_000 + i * 3).collect();
        let buf = enc(|out| encode_u64(out, &values));
        assert!(buf.len() < 1100, "{} bytes for 1000 counters", buf.len());
        assert_eq!(dec(decode_u64, &buf).unwrap(), values);
    }

    #[test]
    fn i64_round_trip() {
        let values = [-1i64, -1, 0, 7, i64::MIN, i64::MAX, -1];
        let buf = enc(|out| encode_i64(out, &values));
        assert_eq!(dec(decode_i64, &buf).unwrap(), values);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        let values = [
            0.0f64,
            -0.0,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e308,
        ];
        let buf = enc(|out| encode_f64(out, &values));
        let back = dec(decode_f64, &buf).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zone_ignores_nan_and_handles_all_nan() {
        assert_eq!(
            zone_of([1.0, f64::NAN, -2.0, 5.0].into_iter()),
            Some((-2.0, 5.0))
        );
        assert_eq!(zone_of([f64::NAN, f64::NAN].into_iter()), None);
        assert_eq!(zone_of(std::iter::empty()), None);
    }

    #[test]
    fn truncated_chunks_error_cleanly() {
        let buf = encode_strs(&["abc"]);
        assert!(dec(decode_str, &buf[..buf.len() - 1]).is_err());
        let fbuf = enc(|out| encode_f64(out, &[1.0, 2.0]));
        assert!(dec(decode_f64, &fbuf[..fbuf.len() - 1]).is_err());
    }

    #[test]
    fn u64_decoder_rejects_a_huge_row_count() {
        assert!(dec(decode_u64, &huge_count(1 << 36, &[0, 0, 0])).is_err());
    }

    #[test]
    fn i64_decoder_rejects_a_huge_row_count() {
        assert!(dec(decode_i64, &huge_count(1 << 36, &[0, 0, 0])).is_err());
    }

    #[test]
    fn f64_decoder_rejects_a_huge_row_count() {
        assert!(dec(decode_f64, &huge_count(1 << 36, &[0; 16])).is_err());
    }

    #[test]
    fn str_decoder_rejects_huge_dictionary_and_row_counts() {
        // A dictionary claiming 2^31 entries, then one claiming 2^40.
        assert!(dec(decode_str, &huge_count(1 << 31, &[1, b'a'])).is_err());
        assert!(dec(decode_str, &huge_count(1 << 40, &[1, b'a'])).is_err());
        // A one-entry dictionary with a row count of 2^36.
        let mut buf = huge_count(1, &[1, b'a']);
        put_varint(&mut buf, 1 << 36);
        buf.extend_from_slice(&[0, 0]);
        assert!(dec(decode_str, &buf).is_err());
        // A count that overflows past the entries already in the column.
        let mut col = dec(decode_str, &encode_strs(&["a"])).unwrap();
        assert!(decode_str(&huge_count(u64::MAX, &[1, b'a']), &mut col).is_err());
    }
}
