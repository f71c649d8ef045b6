//! Segment files: the on-disk unit of the warehouse.
//!
//! One segment holds one ingest batch, laid out column-major:
//!
//! ```text
//! "HSCS"                                      4-byte magic
//! chunk 0: col 0 bytes, col 1 bytes, …        encoded per column.rs
//! chunk 1: …                                  (65 536 rows per chunk)
//! footer                                       varint-encoded, see below
//! footer length                                u64 little-endian
//! "HSCF"                                      4-byte trailing magic
//! ```
//!
//! The footer carries the column index (names + types, validated against
//! the compiled-in schema on open), per-chunk row counts and per-column
//! byte ranges, min/max zone maps for numeric columns, the batch's run
//! keys (for ingest dedupe without scanning rows), and the total row
//! count. Readers parse the footer, then decode only the chunk/column
//! ranges a query actually touches.

use std::borrow::Cow;
use std::fs::File;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::column::{
    capped, decode_into, encode_f64, encode_i64, encode_str, encode_u64, zone_of, ColumnData,
    DictBuilder,
};
use crate::schema::{ColumnType, Row, Value, COLUMNS};
use crate::varint::{get_varint, put_varint};

/// Rows per chunk. Large enough to amortize dictionaries, small enough
/// that zone maps prune usefully within big batches.
pub const CHUNK_ROWS: usize = 65_536;

const MAGIC_HEAD: &[u8; 4] = b"HSCS";
const MAGIC_TAIL: &[u8; 4] = b"HSCF";

/// Byte range + zone map of one column within one chunk.
#[derive(Clone, Debug)]
pub struct ChunkColMeta {
    pub offset: usize,
    pub len: usize,
    /// `(min, max)` over finite values; `None` for strings and all-NaN
    /// chunks.
    pub zone: Option<(f64, f64)>,
}

/// Per-chunk footer entry.
#[derive(Clone, Debug)]
pub struct ChunkMeta {
    pub rows: usize,
    pub cols: Vec<ChunkColMeta>,
}

/// Parsed segment footer.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    pub chunks: Vec<ChunkMeta>,
    /// `campaign \u{1f} run \u{1f} config` strings, one per ingested run.
    pub run_keys: Vec<String>,
    pub total_rows: usize,
}

/// One chunk's cells, one column, gathered for encoding.
pub(crate) enum ChunkCol<'a> {
    /// The chunk dictionary and one id into it per row.
    Str(DictBuilder<'a>, Vec<u32>),
    U64(Vec<u64>),
    I64(Vec<i64>),
    F64(Vec<f64>),
}

impl ChunkCol<'_> {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Str => ChunkCol::Str(DictBuilder::default(), Vec::new()),
            ColumnType::U64 => ChunkCol::U64(Vec::new()),
            ColumnType::I64 => ChunkCol::I64(Vec::new()),
            ColumnType::F64 => ChunkCol::F64(Vec::new()),
        }
    }

    /// Appends the column's encoding to `out`; returns its zone map.
    fn encode(&self, out: &mut Vec<u8>) -> Option<(f64, f64)> {
        match self {
            ChunkCol::Str(dict, ids) => {
                encode_str(out, dict.entries(), ids);
                None
            }
            ChunkCol::U64(v) => {
                encode_u64(out, v);
                zone_of(v.iter().map(|&x| x as f64))
            }
            ChunkCol::I64(v) => {
                encode_i64(out, v);
                zone_of(v.iter().map(|&x| x as f64))
            }
            ChunkCol::F64(v) => {
                encode_f64(out, v);
                zone_of(v.iter().copied())
            }
        }
    }
}

/// The cells a segment is written from: ingest's rows, or compaction's
/// concatenated column buffers.
pub(crate) trait Cells {
    fn row_count(&self) -> usize;
    /// Appends the cells of `rows` to `chunk`, which holds one entry per
    /// schema column.
    fn fill<'a>(&'a self, rows: Range<usize>, chunk: &mut [ChunkCol<'a>]);
}

/// Rows are gathered a cache-sized block at a time, column by column:
/// one pass over the rows' memory, and inner loops that each read a
/// single field.
impl Cells for [Row] {
    fn row_count(&self) -> usize {
        self.len()
    }
    fn fill<'a>(&'a self, rows: Range<usize>, chunk: &mut [ChunkCol<'a>]) {
        for block in self[rows].chunks(256) {
            for (col, cells) in chunk.iter_mut().enumerate() {
                match cells {
                    ChunkCol::Str(dict, ids) => {
                        ids.extend(block.iter().map(|r| dict.intern(r.str_at(col))))
                    }
                    ChunkCol::U64(v) => v.extend(block.iter().map(|r| r.u64_at(col))),
                    ChunkCol::I64(v) => v.extend(block.iter().map(|r| r.i64_at(col))),
                    ChunkCol::F64(v) => v.extend(block.iter().map(|r| r.f64_at(col))),
                }
            }
        }
    }
}

/// One [`ColumnData`] per schema column, all of the same length. String
/// ids index (possibly concatenated) source dictionaries; each output
/// chunk re-interns the entries its rows use, in first-appearance order.
impl Cells for [ColumnData] {
    fn row_count(&self) -> usize {
        self.first().map_or(0, ColumnData::len)
    }
    fn fill<'a>(&'a self, rows: Range<usize>, chunk: &mut [ChunkCol<'a>]) {
        for (source, cells) in self.iter().zip(chunk) {
            match (source, cells) {
                (ColumnData::Str(s), ChunkCol::Str(dict, ids)) => {
                    // The rows' ids index only the dictionaries of the
                    // source chunks they come from, which lie back to
                    // back: memoize that slot range, not the whole
                    // concatenation, so each source entry is memoized for
                    // at most two output chunks.
                    let cells = &s.ids[rows.clone()];
                    let lo = cells.iter().copied().min().unwrap_or(0);
                    let hi = cells.iter().copied().max().map_or(0, |hi| hi as usize + 1);
                    let source = &s.dict[lo as usize..hi];
                    ids.extend(cells.iter().map(|&id| dict.intern_slot(source, id - lo)));
                }
                (ColumnData::U64(s), ChunkCol::U64(v)) => v.extend_from_slice(&s[rows.clone()]),
                (ColumnData::I64(s), ChunkCol::I64(v)) => v.extend_from_slice(&s[rows.clone()]),
                (ColumnData::F64(s), ChunkCol::F64(v)) => v.extend_from_slice(&s[rows.clone()]),
                _ => unreachable!("column buffers out of schema order"),
            }
        }
    }
}

/// Encodes `rows` (plus the batch's run keys) into segment-file bytes.
pub fn encode_segment(rows: &[Row], run_keys: &[String]) -> Vec<u8> {
    encode_cells(rows, run_keys)
}

/// Encodes `cells` (plus the batch's run keys) into segment-file bytes:
/// the one chunk and footer writer behind ingest and compaction.
pub(crate) fn encode_cells<C: Cells + ?Sized>(cells: &C, run_keys: &[String]) -> Vec<u8> {
    let total = cells.row_count();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_HEAD);
    let mut chunks = Vec::new();
    for start in (0..total).step_by(CHUNK_ROWS) {
        let rows = start..total.min(start + CHUNK_ROWS);
        let mut chunk: Vec<ChunkCol> = COLUMNS.iter().map(|&(_, ty)| ChunkCol::new(ty)).collect();
        cells.fill(rows.clone(), &mut chunk);
        let cols = chunk
            .iter()
            .map(|col| {
                let offset = out.len();
                let zone = col.encode(&mut out);
                ChunkColMeta {
                    offset,
                    len: out.len() - offset,
                    zone,
                }
            })
            .collect();
        chunks.push(ChunkMeta {
            rows: rows.len(),
            cols,
        });
    }

    let mut footer = Vec::new();
    put_varint(&mut footer, COLUMNS.len() as u64);
    for (name, ty) in COLUMNS {
        put_varint(&mut footer, name.len() as u64);
        footer.extend_from_slice(name.as_bytes());
        footer.push(type_byte(*ty));
    }
    put_varint(&mut footer, chunks.len() as u64);
    for chunk in &chunks {
        put_varint(&mut footer, chunk.rows as u64);
        for col in &chunk.cols {
            put_varint(&mut footer, col.offset as u64);
            put_varint(&mut footer, col.len as u64);
            match col.zone {
                Some((lo, hi)) => {
                    footer.push(1);
                    footer.extend_from_slice(&lo.to_bits().to_le_bytes());
                    footer.extend_from_slice(&hi.to_bits().to_le_bytes());
                }
                None => footer.push(0),
            }
        }
    }
    put_varint(&mut footer, run_keys.len() as u64);
    for key in run_keys {
        put_varint(&mut footer, key.len() as u64);
        footer.extend_from_slice(key.as_bytes());
    }
    put_varint(&mut footer, total as u64);

    let footer_len = footer.len() as u64;
    out.extend_from_slice(&footer);
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(MAGIC_TAIL);
    out
}

fn type_byte(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Str => 0,
        ColumnType::U64 => 1,
        ColumnType::I64 => 2,
        ColumnType::F64 => 3,
    }
}

/// A budget of file descriptors that open segments may hold at once.
#[derive(Debug)]
pub(crate) struct FdBudget {
    limit: fn() -> usize,
    held: AtomicUsize,
}

/// The process-wide budget: half the soft open-file limit. However many
/// segments a store holds, queries and [`crate::Store::segments`] leave
/// the other half to ingest writes, sockets and the rest of the process.
pub(crate) static DESCRIPTORS: FdBudget = FdBudget::new(half_open_file_limit);

impl FdBudget {
    pub(crate) const fn new(limit: fn() -> usize) -> FdBudget {
        FdBudget {
            limit,
            held: AtomicUsize::new(0),
        }
    }

    /// Claims one descriptor, or `None` when the budget is spent.
    fn claim(&'static self) -> Option<FdClaim> {
        let limit = (self.limit)();
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < limit).then_some(held + 1)
            })
            .ok()
            .map(|_| FdClaim(self))
    }

    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }
}

/// One claimed descriptor, returned to its budget on drop.
#[derive(Debug)]
struct FdClaim(&'static FdBudget);

impl Drop for FdClaim {
    fn drop(&mut self) {
        self.0.held.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Half the soft limit on open files (`RLIMIT_NOFILE`), read once from
/// `/proc/self/limits`. Where that file is missing or unreadable, the
/// soft limit is taken as 256, the smallest common default.
fn half_open_file_limit() -> usize {
    static HALF: OnceLock<usize> = OnceLock::new();
    *HALF.get_or_init(|| {
        let soft = std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|limits| {
                let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
                match line["Max open files".len()..].split_whitespace().next()? {
                    "unlimited" => Some(usize::MAX),
                    soft => soft.parse().ok(),
                }
            })
            .unwrap_or(256);
        soft / 2
    })
}

/// Where an open segment's bytes come from.
#[derive(Debug)]
enum Source {
    /// The open file, read (`pread`) on demand. It holds one descriptor
    /// of the budget it was opened under.
    File { file: File, _claim: FdClaim },
    /// The byte ranges read when the segment was opened because the
    /// budget was spent, as `(offset, bytes)` sorted by offset. The file
    /// is closed; only these ranges can be read.
    Read(Vec<(usize, Vec<u8>)>),
}

impl Source {
    /// The bytes of `offset..offset + len`, which lies in the file.
    fn read(&self, offset: usize, len: usize) -> std::io::Result<Cow<'_, [u8]>> {
        match self {
            Source::File { file, .. } => read_file(file, offset, len).map(Cow::Owned),
            Source::Read(_) if len == 0 => Ok(Cow::Borrowed(&[])),
            Source::Read(ranges) => {
                let i = ranges.partition_point(|&(start, _)| start <= offset);
                i.checked_sub(1)
                    .and_then(|i| {
                        let (start, bytes) = &ranges[i];
                        bytes.get(offset - start..(offset - start).checked_add(len)?)
                    })
                    .map(Cow::Borrowed)
                    .ok_or_else(|| {
                        std::io::Error::other(format!(
                            "bytes {offset}+{len} were not read when the segment was opened"
                        ))
                    })
            }
        }
    }
}

fn read_file(file: &File, offset: usize, len: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, offset as u64)?;
    Ok(buf)
}

/// Opens `path` with its length; `None` when the file is gone.
fn open_file(path: &Path) -> Result<Option<(File, u64)>, String> {
    let read_err = |e| format!("cannot read segment {}: {e}", path.display());
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(read_err(e)),
    };
    let len = file.metadata().map_err(read_err)?.len();
    Ok(Some((file, len)))
}

/// The byte span `(offset, len)` of each chunk: every column of the
/// segment, as [`Segment::open_with`]'s read-ahead list.
pub(crate) fn every_chunk(meta: &SegmentMeta) -> Vec<(usize, usize)> {
    meta.chunks.iter().map(ChunkMeta::span).collect()
}

impl ChunkMeta {
    /// `(offset, len)` of the bytes all of the chunk's columns lie in. An
    /// end past `usize::MAX` saturates, so it fails every bounds check.
    fn span(&self) -> (usize, usize) {
        let start = self.cols.iter().map(|c| c.offset).min().unwrap_or(0);
        let end = self
            .cols
            .iter()
            .map(|c| c.offset.saturating_add(c.len))
            .fold(start, usize::max);
        (start, end - start)
    }
}

/// An open segment: its parsed footer plus its open file, from which
/// chunk columns are read (`pread`) and decoded on demand. The handle
/// keeps the file readable after it is unlinked, so a reader that opened
/// a segment sees all of it even if a compaction removes it meanwhile.
/// Open files are bounded by a descriptor budget: a segment opened past
/// it reads the bytes its reader will need at once and closes the file.
#[derive(Debug)]
pub struct Segment {
    source: Source,
    file_len: u64,
    pub meta: Arc<SegmentMeta>,
    pub path: PathBuf,
}

impl Segment {
    pub fn open(path: &Path) -> Result<Segment, String> {
        Self::open_if_present(path)?.ok_or_else(|| not_found(path))
    }

    /// Like [`Segment::open`], but a missing file is `Ok(None)` instead of
    /// an error: the segment was compacted away after the listing.
    pub fn open_if_present(path: &Path) -> Result<Option<Segment>, String> {
        Self::open_with(path, None, &DESCRIPTORS, every_chunk)
    }

    /// Opens the file at `path`, with its footer from `cached` (the
    /// store's footer cache) or read from the file. The segment holds the
    /// file open if `budget` has a descriptor to spare. Otherwise it reads
    /// the `(offset, len)` ranges `ahead` names now and closes the file,
    /// and only bytes inside those ranges can be read from it. Either way
    /// the segment reads the same bytes after the file is unlinked.
    pub(crate) fn open_with(
        path: &Path,
        cached: Option<Arc<SegmentMeta>>,
        budget: &'static FdBudget,
        ahead: impl FnOnce(&SegmentMeta) -> Vec<(usize, usize)>,
    ) -> Result<Option<Segment>, String> {
        let Some((file, file_len)) = open_file(path)? else {
            return Ok(None);
        };
        let meta = match cached {
            Some(meta) => meta,
            None => Arc::new(read_footer(path, &file, file_len)?),
        };
        let source = match budget.claim() {
            Some(claim) => Source::File {
                file,
                _claim: claim,
            },
            None => {
                let mut ranges = ahead(&meta)
                    .into_iter()
                    .filter(|&(_, len)| len > 0)
                    .map(|(offset, len)| {
                        check_in_file(path, file_len, offset, len)?;
                        let bytes = read_file(&file, offset, len).map_err(|e| read_err(path, e))?;
                        Ok((offset, bytes))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                ranges.sort_unstable_by_key(|&(offset, _)| offset);
                Source::Read(ranges)
            }
        };
        Ok(Some(Segment {
            source,
            file_len,
            meta,
            path: path.to_path_buf(),
        }))
    }

    /// Parses only the footer of a segment file — enough for run-key
    /// dedupe checks without decoding any rows. It reads just the header,
    /// trailer and footer bytes, so a store of many segments pays
    /// footer-sized I/O per file.
    pub fn read_meta(path: &Path) -> Result<SegmentMeta, String> {
        Self::read_meta_if_present(path)?.ok_or_else(|| not_found(path))
    }

    /// Like [`Segment::read_meta`], but a missing file is `Ok(None)`.
    pub(crate) fn read_meta_if_present(path: &Path) -> Result<Option<SegmentMeta>, String> {
        match open_file(path)? {
            Some((file, len)) => read_footer(path, &file, len).map(Some),
            None => Ok(None),
        }
    }

    #[cfg(test)]
    pub(crate) fn holds_file(&self) -> bool {
        matches!(self.source, Source::File { .. })
    }

    /// Decodes every row of the segment, in chunk/row order.
    pub fn rows(&self) -> Result<Vec<Row>, String> {
        let mut out = Vec::new();
        for chunk_idx in 0..self.meta.chunks.len() {
            let cols = self.read_chunk(chunk_idx)?;
            out.reserve(self.meta.chunks[chunk_idx].rows);
            for i in 0..self.meta.chunks[chunk_idx].rows {
                let values: Vec<Value> = cols.iter().map(|c| c.value(i)).collect();
                out.push(Row::from_values(&values)?);
            }
        }
        Ok(out)
    }

    /// Reads `len` bytes at `offset`, after checking the range lies in
    /// the file, so a corrupt footer can never size an allocation.
    fn read_range(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, String> {
        check_in_file(&self.path, self.file_len, offset, len)?;
        self.source
            .read(offset, len)
            .map_err(|e| read_err(&self.path, e))
    }

    /// Raw bytes of column `col_idx` in chunk `chunk_idx`.
    pub fn chunk_col_bytes(&self, chunk_idx: usize, col_idx: usize) -> Result<Vec<u8>, String> {
        let col = &self.meta.chunks[chunk_idx].cols[col_idx];
        self.read_range(col.offset, col.len).map(Cow::into_owned)
    }

    /// Decodes column `col_idx` of chunk `chunk_idx`.
    pub fn read_chunk_column(
        &self,
        chunk_idx: usize,
        col_idx: usize,
    ) -> Result<ColumnData, String> {
        let meta = &self.meta.chunks[chunk_idx].cols[col_idx];
        let bytes = self.read_range(meta.offset, meta.len)?;
        let mut col = ColumnData::empty(COLUMNS[col_idx].1);
        self.decode_checked(chunk_idx, col_idx, &bytes, &mut col)?;
        Ok(col)
    }

    /// Decodes every column of chunk `chunk_idx`.
    pub fn read_chunk(&self, chunk_idx: usize) -> Result<Vec<ColumnData>, String> {
        let mut cols: Vec<ColumnData> = COLUMNS
            .iter()
            .map(|&(_, ty)| ColumnData::empty(ty))
            .collect();
        self.read_chunk_into(chunk_idx, &mut cols)?;
        Ok(cols)
    }

    /// Decodes every column of chunk `chunk_idx` onto the end of `cols`
    /// (one per schema column), from one read of the chunk's byte span.
    pub(crate) fn read_chunk_into(
        &self,
        chunk_idx: usize,
        cols: &mut [ColumnData],
    ) -> Result<(), String> {
        let metas = &self.meta.chunks[chunk_idx].cols;
        let (start, len) = self.meta.chunks[chunk_idx].span();
        let span = self.read_range(start, len)?;
        for (col_idx, (meta, col)) in metas.iter().zip(cols).enumerate() {
            let at = meta.offset - start;
            self.decode_checked(chunk_idx, col_idx, &span[at..at + meta.len], col)?;
        }
        Ok(())
    }

    /// Decodes one chunk column's bytes onto `col` and checks the row
    /// count against the footer.
    fn decode_checked(
        &self,
        chunk_idx: usize,
        col_idx: usize,
        bytes: &[u8],
        col: &mut ColumnData,
    ) -> Result<(), String> {
        let corrupt = |e: String| format!("corrupt segment {}: {e}", self.path.display());
        let before = col.len();
        decode_into(bytes, col).map_err(corrupt)?;
        let rows = self.meta.chunks[chunk_idx].rows;
        if col.len() - before != rows {
            return Err(corrupt(format!(
                "chunk {chunk_idx} column {} decoded {} rows, footer says {rows}",
                COLUMNS[col_idx].0,
                col.len() - before,
            )));
        }
        Ok(())
    }
}

fn not_found(path: &Path) -> String {
    format!("cannot read segment {}: file not found", path.display())
}

fn read_err(path: &Path, e: std::io::Error) -> String {
    format!("cannot read segment {}: {e}", path.display())
}

/// Checks that `offset..offset + len` lies in a file of `file_len` bytes.
fn check_in_file(path: &Path, file_len: u64, offset: usize, len: usize) -> Result<(), String> {
    offset
        .checked_add(len)
        .filter(|&end| end as u64 <= file_len)
        .map(|_| ())
        .ok_or_else(|| {
            format!(
                "corrupt segment {}: chunk byte range out of file bounds",
                path.display()
            )
        })
}

/// Reads and parses the footer of the `len`-byte segment `file` at
/// `path`: header magic, trailer, then the footer body.
fn read_footer(path: &Path, file: &File, len: u64) -> Result<SegmentMeta, String> {
    let read_err = |e| read_err(path, e);
    let corrupt = |msg: &str| format!("corrupt segment {}: {msg}", path.display());
    if len < (MAGIC_HEAD.len() + 8 + MAGIC_TAIL.len()) as u64 {
        return Err(corrupt("file shorter than magic + footer trailer"));
    }
    let mut head = [0u8; 4];
    file.read_exact_at(&mut head, 0).map_err(read_err)?;
    if &head != MAGIC_HEAD {
        return Err(corrupt("bad header magic (not an hsc segment)"));
    }
    let mut trailer = [0u8; 12];
    file.read_exact_at(&mut trailer, len - 12)
        .map_err(read_err)?;
    if &trailer[8..] != MAGIC_TAIL {
        return Err(corrupt("bad trailing magic (truncated write?)"));
    }
    let footer_len = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let footer_start = (len - 12)
        .checked_sub(footer_len)
        .ok_or_else(|| corrupt("footer length exceeds file size"))?;
    let mut footer = vec![0u8; footer_len as usize];
    file.read_exact_at(&mut footer, footer_start)
        .map_err(read_err)?;
    parse_footer_body(&footer).map_err(|e| corrupt(&e))
}

/// Parses the footer bytes themselves (column index, chunk table, run
/// keys, row total).
fn parse_footer_body(footer: &[u8]) -> Result<SegmentMeta, String> {
    let mut pos = 0;
    let ncols = get_varint(footer, &mut pos)? as usize;
    if ncols != COLUMNS.len() {
        return Err(format!(
            "segment has {ncols} columns, this build expects {}",
            COLUMNS.len()
        ));
    }
    for (name, ty) in COLUMNS {
        let len = get_varint(footer, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= footer.len())
            .ok_or_else(|| "truncated column name".to_string())?;
        let got = std::str::from_utf8(&footer[pos..end])
            .map_err(|e| format!("non-UTF-8 column name: {e}"))?;
        pos = end;
        let ty_byte = *footer
            .get(pos)
            .ok_or_else(|| "truncated column type".to_string())?;
        pos += 1;
        if got != *name || ty_byte != type_byte(*ty) {
            return Err(format!(
                "column mismatch: segment has {got:?}/type {ty_byte}, schema wants {name:?}"
            ));
        }
    }

    // Each chunk entry takes at least a row-count byte plus, per column,
    // offset, length and zone-flag bytes; each run key a length byte.
    let nchunks = get_varint(footer, &mut pos)?;
    let chunk_min = 1 + 3 * COLUMNS.len();
    let mut chunks = Vec::with_capacity(capped(nchunks, footer.len() - pos, chunk_min));
    let mut total = 0usize;
    for _ in 0..nchunks {
        let rows = get_varint(footer, &mut pos)? as usize;
        if rows > CHUNK_ROWS {
            return Err(format!("chunk of {rows} rows, more than {CHUNK_ROWS}"));
        }
        total = total
            .checked_add(rows)
            .ok_or_else(|| "chunk row counts overflow".to_string())?;
        let mut cols = Vec::with_capacity(COLUMNS.len());
        for _ in COLUMNS {
            let offset = get_varint(footer, &mut pos)? as usize;
            let len = get_varint(footer, &mut pos)? as usize;
            let has_zone = *footer
                .get(pos)
                .ok_or_else(|| "truncated zone flag".to_string())?;
            pos += 1;
            let zone = if has_zone == 1 {
                let end = pos
                    .checked_add(16)
                    .filter(|&e| e <= footer.len())
                    .ok_or_else(|| "truncated zone map".to_string())?;
                let lo = u64::from_le_bytes(footer[pos..pos + 8].try_into().expect("8 bytes"));
                let hi = u64::from_le_bytes(footer[pos + 8..end].try_into().expect("8 bytes"));
                pos = end;
                Some((f64::from_bits(lo), f64::from_bits(hi)))
            } else {
                None
            };
            cols.push(ChunkColMeta { offset, len, zone });
        }
        chunks.push(ChunkMeta { rows, cols });
    }

    let nkeys = get_varint(footer, &mut pos)?;
    let mut run_keys = Vec::with_capacity(capped(nkeys, footer.len() - pos, 1));
    for _ in 0..nkeys {
        let len = get_varint(footer, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= footer.len())
            .ok_or_else(|| "truncated run key".to_string())?;
        run_keys.push(
            std::str::from_utf8(&footer[pos..end])
                .map_err(|e| format!("non-UTF-8 run key: {e}"))?
                .to_string(),
        );
        pos = end;
    }
    let total_rows = get_varint(footer, &mut pos)? as usize;
    if total_rows != total {
        return Err(format!(
            "footer total {total_rows} != sum of chunk rows {total}"
        ));
    }
    Ok(SegmentMeta {
        chunks,
        run_keys,
        total_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let mut r = Row::new("camp", "run-1", "probe", "deadbeefdeadbeef");
                r.seed = 42 + i as u64;
                r.worker = (i % 4) as i64;
                r.events = (i * 10) as u64;
                r.t = i as f64 * 0.5;
                r.value = if i % 7 == 0 { f64::NAN } else { i as f64 };
                r.metric = if i % 2 == 0 {
                    "sample".into()
                } else {
                    "other".into()
                };
                r
            })
            .collect()
    }

    fn write_tmp(bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hsc-seg-test-{}-{}",
            std::process::id(),
            bytes.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.hsc");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn segment_round_trips_rows_and_keys() {
        let rows = sample_rows(100);
        let keys = vec!["camp\u{1f}run-1\u{1f}deadbeefdeadbeef".to_string()];
        let bytes = encode_segment(&rows, &keys);
        let path = write_tmp(&bytes);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta.total_rows, 100);
        assert_eq!(seg.meta.chunks.len(), 1);
        assert_eq!(seg.meta.run_keys, keys);
        for col_idx in 0..COLUMNS.len() {
            let data = seg.read_chunk_column(0, col_idx).unwrap();
            assert_eq!(data.len(), 100);
            for (i, row) in rows.iter().enumerate() {
                let want = row.get(col_idx);
                let got = data.value(i);
                match (&want, &got) {
                    (Value::F64(a), Value::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    _ => assert_eq!(want, got, "col {col_idx} row {i}"),
                }
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn multi_chunk_segments_split_at_chunk_rows() {
        let rows = sample_rows(CHUNK_ROWS + 10);
        let bytes = encode_segment(&rows, &[]);
        let path = write_tmp(&bytes);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta.chunks.len(), 2);
        assert_eq!(seg.meta.chunks[0].rows, CHUNK_ROWS);
        assert_eq!(seg.meta.chunks[1].rows, 10);
        assert_eq!(seg.meta.total_rows, CHUNK_ROWS + 10);
        let t = seg.read_chunk_column(1, 14).unwrap();
        assert_eq!(t.value(9), Value::F64((CHUNK_ROWS + 9) as f64 * 0.5));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn segments_past_the_descriptor_budget_read_ahead_and_close_their_file() {
        static ONE: FdBudget = FdBudget::new(|| 1);
        let rows = sample_rows(CHUNK_ROWS + 10);
        let path = write_tmp(&encode_segment(&rows, &[]));
        let open = || {
            Segment::open_with(&path, None, &ONE, every_chunk)
                .unwrap()
                .unwrap()
        };
        let held = open();
        let read = open();
        assert!(held.holds_file() && !read.holds_file());
        assert_eq!(ONE.held(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        // Both still read every row after the file is gone.
        for seg in [&held, &read] {
            let back = seg.rows().unwrap();
            assert_eq!(back.len(), rows.len());
            assert_eq!(back[CHUNK_ROWS + 9].t, rows[CHUNK_ROWS + 9].t);
        }
        drop(held);
        assert_eq!(ONE.held(), 0, "closing the file returns its descriptor");

        // A read-ahead segment reads only the ranges it was asked for.
        let path = write_tmp(&encode_segment(&rows[..50], &[]));
        let _held = Segment::open_with(&path, None, &ONE, every_chunk)
            .unwrap()
            .unwrap();
        let seg = Segment::open_with(&path, None, &ONE, |meta| {
            let col = &meta.chunks[0].cols[14];
            vec![(col.offset, col.len)]
        })
        .unwrap()
        .unwrap();
        assert_eq!(
            seg.read_chunk_column(0, 14).unwrap().value(3),
            Value::F64(1.5)
        );
        let err = seg.read_chunk_column(0, 15).unwrap_err();
        assert!(
            err.contains("not read when the segment was opened"),
            "{err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn footer_reads_hold_no_descriptor_and_miss_cleanly() {
        let path = write_tmp(&encode_segment(&sample_rows(20), &[]));
        let meta = Segment::read_meta(&path).unwrap();
        assert_eq!(meta.total_rows, 20);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        assert!(Segment::read_meta_if_present(&path).unwrap().is_none());
        assert!(Segment::read_meta(&path).unwrap_err().contains("not found"));
    }

    #[test]
    fn an_output_chunk_memoizes_only_its_source_chunks_dictionaries() {
        // Every string column holds one distinct entry per row, as if
        // decoded from three chunks of unique strings.
        let n = 2 * CHUNK_ROWS + 10;
        let cells: Vec<ColumnData> = COLUMNS
            .iter()
            .map(|&(_, ty)| match ty {
                ColumnType::Str => ColumnData::Str(crate::column::StrColumn {
                    dict: (0..n).map(|i| i.to_string()).collect(),
                    ids: (0..n as u32).collect(),
                }),
                ty => {
                    let mut col = ColumnData::empty(ty);
                    match &mut col {
                        ColumnData::U64(v) => v.resize(n, 0),
                        ColumnData::I64(v) => v.resize(n, 0),
                        ColumnData::F64(v) => v.resize(n, 0.0),
                        ColumnData::Str(_) => unreachable!(),
                    }
                    col
                }
            })
            .collect();
        let mut chunk: Vec<ChunkCol> = COLUMNS.iter().map(|&(_, ty)| ChunkCol::new(ty)).collect();
        cells
            .as_slice()
            .fill(CHUNK_ROWS..2 * CHUNK_ROWS, &mut chunk);
        for col in &chunk {
            if let ChunkCol::Str(dict, ids) = col {
                assert_eq!(dict.memo_len(), CHUNK_ROWS, "not the whole {n}-slot source");
                assert_eq!(dict.entries()[0], CHUNK_ROWS.to_string());
                assert_eq!(ids[..3], [0, 1, 2]);
            }
        }
    }

    #[test]
    fn zone_maps_cover_numeric_columns() {
        let rows = sample_rows(50);
        let bytes = encode_segment(&rows, &[]);
        let path = write_tmp(&bytes);
        let seg = Segment::open(&path).unwrap();
        let chunk = &seg.meta.chunks[0];
        // seed column: 42..=91.
        assert_eq!(chunk.cols[7].zone, Some((42.0, 91.0)));
        // strings carry no zone.
        assert_eq!(chunk.cols[0].zone, None);
        // value column: NaNs excluded, min is 1.0 (i=0 is NaN).
        let (lo, hi) = chunk.cols[15].zone.unwrap();
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 48.0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A footer body's column index, as the writer lays it out.
    fn column_index() -> Vec<u8> {
        let mut footer = Vec::new();
        put_varint(&mut footer, COLUMNS.len() as u64);
        for (name, ty) in COLUMNS {
            put_varint(&mut footer, name.len() as u64);
            footer.extend_from_slice(name.as_bytes());
            footer.push(type_byte(*ty));
        }
        footer
    }

    #[test]
    fn footer_parser_rejects_huge_chunk_row_and_key_counts() {
        let mut chunks = column_index();
        put_varint(&mut chunks, 1 << 36);
        chunks.extend_from_slice(&[0; 8]);
        assert!(parse_footer_body(&chunks).is_err());

        let mut rows = column_index();
        put_varint(&mut rows, 1);
        put_varint(&mut rows, CHUNK_ROWS as u64 + 1);
        rows.extend_from_slice(&[0; 64]);
        let err = parse_footer_body(&rows).unwrap_err();
        assert!(err.contains("more than"), "{err}");

        let mut keys = column_index();
        put_varint(&mut keys, 0);
        put_varint(&mut keys, 1 << 36);
        keys.extend_from_slice(&[0; 8]);
        assert!(parse_footer_body(&keys).is_err());
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let rows = sample_rows(5);
        let bytes = encode_segment(&rows, &[]);
        // Truncated file.
        let path = write_tmp(&bytes[..bytes.len() - 3]);
        let err = Segment::open(&path).unwrap_err();
        assert!(err.contains("corrupt segment"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        // Wrong magic.
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        let path = write_tmp(&garbled);
        let err = Segment::open(&path).unwrap_err();
        assert!(err.contains("not an hsc segment"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
