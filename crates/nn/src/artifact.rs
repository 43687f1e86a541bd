//! `RBFNFRZ1` — the zero-copy frozen-model artifact container.
//!
//! A frozen model (f32 or int8 tier) is serialized into a **single aligned,
//! per-section-CRC'd blob**: a small *structure stream* describing the layer
//! tree inline, plus 64-byte-aligned *sections* holding the large payloads
//! (packed GEMM panel images, linear weights). The file is written
//! atomically — tmp file, fsync of the file **and its parent directory**,
//! rename — and loaded by `mmap` where available, so packed panels reference
//! the page cache directly ([`revbifpn_tensor::PackedGemmA::from_shared_image`])
//! and a worker cold-starts in milliseconds. A copy-loading fallback keeps
//! every other target working.
//!
//! # Layout
//!
//! ```text
//! header   48 bytes:
//!   magic       8   b"RBFNFRZ1"
//!   version     4   u32 LE = 2 (2: an int8 conv stores its int8 weight
//!                   rows and scales, not int8 GEMM panels)
//!   layout      4   u32 LE, gemm_layout_fingerprint() of the writing build
//!   flags       4   u32 LE, caller-defined (model kind / precision tier)
//!   n_sections  4   u32 LE
//!   struct_len  8   u64 LE
//!   meta_crc    4   u32 LE, CRC32 over TOC ‖ structure stream
//!   digest      8   u64 LE, FNV-1a64 over TOC ‖ structure stream
//!   header_crc  4   u32 LE over the 44 bytes above
//! toc      n_sections * 24: { offset u64, len u64, crc u32, pad u32 }
//! structure stream (struct_len bytes)
//! sections, each 64-byte aligned, zero-padded between
//! ```
//!
//! # Validation strategy
//!
//! The header, TOC and structure stream are CRC-verified **eagerly** at
//! open — they are small, and every offset/length is bounds-checked before
//! use. Per-section payload CRCs are verified **on demand** via
//! [`ArtifactReader::verify_sections`]: a trusted cold-start skips the scan
//! (touching ~50 MiB of panels would forfeit the mmap win), while the serve
//! layer's hot-reload publish always runs it, so a bit-flipped section is
//! quarantined before it can ever serve a request.
//!
//! # Fault injection
//!
//! [`inject_io_faults`] arms deterministic write-path faults (torn writes,
//! short writes, ENOSPC, transient errors, directory-fsync failure) for the
//! next atomic write on the calling thread — the chaos harness drives the
//! whole checkpoint/artifact lifecycle through them.

use crate::checkpoint::crc32;
use crate::freeze::{ActKind, FrozenLayer, FusedConv, PackedLinear};
use revbifpn_tensor::{
    gemm_layout_fingerprint, ConvPlan, ConvSpec, EpilogueAct, PackedGemmA, Panel, PlanKind,
    ResizeMode, Shape, SharedBytes, Tensor,
};
use std::cell::Cell;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RBFNFRZ1";
const VERSION: u32 = 2;
const HEADER_LEN: usize = 48;
const TOC_ENTRY_LEN: usize = 24;
const SECTION_ALIGN: usize = 64;
/// f32 arrays at or above this many elements go to a section instead of the
/// structure stream.
const SECTION_MIN_F32S: usize = 256;
/// i8 arrays at or above this many *bytes* go to a section instead of the
/// structure stream: the structure stream is CRC'd eagerly at every
/// open (the serving cold path), sections only on demand.
const SECTION_MIN_BYTES: usize = 1024;

fn inv(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn fnv1a64(seed: u64, data: &[u8]) -> u64 {
    let mut h = if seed == 0 { 0xcbf2_9ce4_8422_2325 } else { seed };
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// --------------------------------------------------------------- I/O faults

/// Deterministic write-path faults for the next atomic write on this thread
/// (see [`inject_io_faults`]). Fields compose; all default to "no fault".
#[derive(Clone, Debug, Default)]
pub struct IoFaults {
    /// Keep only this many bytes of the tmp file, then simulate a crash:
    /// the partial tmp is left behind, no rename happens, and the write
    /// reports an error (standing in for the process dying mid-write).
    pub torn_write: Option<usize>,
    /// Silently lose this many tail bytes but complete the fsync + rename —
    /// a lying lower layer. Only load-time CRCs can catch this one.
    pub short_write: Option<usize>,
    /// Report `ENOSPC` after this many bytes reach the tmp file; the
    /// partial tmp is left behind and no rename happens.
    pub enospc_after: Option<usize>,
    /// Fail this many initial attempts with a transient `Interrupted`
    /// error, exercising the bounded retry-with-backoff path.
    pub transient_errors: u32,
    /// The parent-directory fsync after the rename reports failure (the
    /// rename itself may not be durable — the caller must treat the save
    /// as failed).
    pub fail_dir_fsync: bool,
}

thread_local! {
    static IO_FAULTS: Cell<Option<IoFaults>> = const { Cell::new(None) };
}

/// Arms `faults` for the next [`write_atomic`] on this thread (taken once).
pub fn inject_io_faults(faults: IoFaults) {
    IO_FAULTS.with(|c| c.set(Some(faults)));
}

/// Clears any armed faults (test hygiene).
pub fn clear_io_faults() {
    IO_FAULTS.with(|c| c.set(None));
}

/// Maximum attempts for a transiently-failing I/O operation.
pub const IO_RETRY_BUDGET: u32 = 4;

fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Runs `op`, retrying transient failures (`EINTR`/`EAGAIN`-class) up to
/// [`IO_RETRY_BUDGET`] attempts with exponential backoff (1/2/4 ms). Every
/// retry counts one `"io.retries"` meter event; a persistent failure or any
/// non-transient error propagates unchanged.
pub fn with_io_retries<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay_ms = 1u64;
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt + 1 < IO_RETRY_BUDGET => {
                crate::meter::count("io.retries");
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                delay_ms *= 2;
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Renames `from` to `to` with the transient-retry budget of
/// [`with_io_retries`] — quarantine moves use this so a busy file cannot
/// wedge the reload path.
pub fn rename_with_retries(from: &Path, to: &Path) -> io::Result<()> {
    with_io_retries(|| fs::rename(from, to))
}

/// Writes `bytes` to `path` atomically and durably: `<path>.tmp` is
/// written and fsynced, renamed over `path`, then the parent directory is
/// fsynced so the rename itself survives power loss. Transient errors are
/// retried under [`with_io_retries`]; injected faults (see [`IoFaults`])
/// perturb exactly one write.
///
/// # Errors
///
/// Propagates I/O errors (including a failed directory fsync — the caller
/// must not assume durability). On error the destination is only replaced
/// if the failure happened after the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let faults = IO_FAULTS.with(|c| c.take()).unwrap_or_default();
    let budget = Cell::new(faults.transient_errors);
    with_io_retries(|| {
        if budget.get() > 0 {
            budget.set(budget.get() - 1);
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient error"));
        }
        write_atomic_once(path, bytes, &faults)
    })
}

fn write_atomic_once(path: &Path, bytes: &[u8], faults: &IoFaults) -> io::Result<()> {
    let tmp = crate::checkpoint::tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        if let Some(keep) = faults.torn_write {
            f.write_all(&bytes[..keep.min(bytes.len())])?;
            f.sync_all()?;
            return Err(io::Error::other("injected torn write (simulated crash mid-write)"));
        }
        if let Some(after) = faults.enospc_after {
            f.write_all(&bytes[..after.min(bytes.len())])?;
            f.sync_all()?;
            return Err(io::Error::from_raw_os_error(28)); // ENOSPC
        }
        let lose = faults.short_write.unwrap_or(0).min(bytes.len());
        f.write_all(&bytes[..bytes.len() - lose])?;
        f.flush()?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if faults.fail_dir_fsync {
        return Err(io::Error::other("injected directory fsync failure"));
    }
    sync_parent_dir(path)
}

/// Fsyncs `path`'s parent directory so a completed rename is durable.
/// Failure is propagated on Unix (where directory fsync is well-defined);
/// elsewhere an unsupported operation is tolerated.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(dir) = path.parent() else { return Ok(()) };
    let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    match File::open(dir).and_then(|d| d.sync_all()) {
        Ok(()) => Ok(()),
        Err(e) if !cfg!(unix) && e.kind() == io::ErrorKind::Unsupported => Ok(()),
        Err(e) => Err(e),
    }
}

/// The `.corrupt` quarantine sibling for `path`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    PathBuf::from(os)
}

/// Prunes quarantined (`*.corrupt`) files in `dir` down to the newest
/// `keep` (by modification time, file name as tie-break), mirroring the
/// checkpoint retention policy: failures must leave evidence, but a
/// crash-looping deployment must not fill the disk with it. Returns how
/// many files were removed. `keep` is clamped to at least 1.
pub fn prune_quarantine(dir: &Path, keep: usize) -> io::Result<usize> {
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let is_corrupt = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".corrupt"));
        if !is_corrupt || !path.is_file() {
            continue;
        }
        let mtime = entry.metadata()?.modified().unwrap_or(std::time::UNIX_EPOCH);
        found.push((mtime, path));
    }
    // Newest first; name descending breaks equal-mtime ties deterministically.
    found.sort_by(|a, b| b.cmp(a));
    let mut removed = 0;
    for (_, old) in found.into_iter().skip(keep.max(1)) {
        fs::remove_file(old)?;
        removed += 1;
    }
    Ok(removed)
}

// ----------------------------------------------------------------- writer

/// Assembles an `RBFNFRZ1` artifact: an inline structure stream plus
/// aligned, individually CRC'd payload sections. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ArtifactWriter {
    flags: u32,
    structure: Vec<u8>,
    sections: Vec<Vec<u8>>,
}

impl ArtifactWriter {
    /// A fresh writer; `flags` are caller-defined (model kind, tier).
    pub fn new(flags: u32) -> Self {
        Self { flags, structure: Vec::new(), sections: Vec::new() }
    }

    /// Appends one raw byte to the structure stream.
    pub fn put_u8(&mut self, v: u8) {
        self.structure.push(v);
    }

    /// Appends a `u32` (LE) to the structure stream.
    pub fn put_u32(&mut self, v: u32) {
        self.structure.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE) to the structure stream.
    pub fn put_u64(&mut self, v: u64) {
        self.structure.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` (LE bits) to the structure stream.
    pub fn put_f32(&mut self, v: f32) {
        self.structure.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string to the structure stream.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.structure.extend_from_slice(s.as_bytes());
    }

    /// Adds a payload section, returning its id.
    pub fn put_section(&mut self, bytes: Vec<u8>) -> u32 {
        self.sections.push(bytes);
        (self.sections.len() - 1) as u32
    }

    /// Appends an f32 array: inline below [`SECTION_MIN_F32S`] elements,
    /// as a section reference at or above it.
    pub fn put_f32s(&mut self, v: &[f32]) {
        if v.len() < SECTION_MIN_F32S {
            self.put_u8(0);
            self.put_u32(v.len() as u32);
            for x in v {
                self.structure.extend_from_slice(&x.to_le_bytes());
            }
        } else {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            let id = self.put_section(f32s_to_le_bytes(v));
            self.put_u32(id);
        }
    }

    /// Appends an `i8` array: inline below [`SECTION_MIN_BYTES`] bytes, as
    /// a section reference at or above it.
    pub fn put_i8s(&mut self, v: &[i8]) {
        if v.len() < SECTION_MIN_BYTES {
            self.put_u8(0);
            self.put_u32(v.len() as u32);
            self.structure.extend(i8s_to_bytes(v));
        } else {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            let id = self.put_section(i8s_to_bytes(v).collect());
            self.put_u32(id);
        }
    }

    /// Appends an f32 panel image as an aligned section (always), writing
    /// the reference into the structure stream.
    pub fn put_panel_f32(&mut self, image: &[f32]) {
        let id = self.put_section(f32s_to_le_bytes(image));
        self.put_u32(id);
        self.put_u32(image.len() as u32);
    }

    /// Appends a dense tensor (shape + data, auto inline/section).
    pub fn put_tensor(&mut self, t: &Tensor) {
        let s = t.shape();
        for d in [s.n, s.c, s.h, s.w] {
            self.put_u32(d as u32);
        }
        self.put_f32s(t.data());
    }

    /// Assembles the final artifact bytes.
    pub fn finish(&self) -> Vec<u8> {
        let n = self.sections.len();
        let toc_len = n * TOC_ENTRY_LEN;
        let payload_base = HEADER_LEN + toc_len + self.structure.len();

        // Lay out sections.
        let mut offsets = Vec::with_capacity(n);
        let mut cursor = payload_base;
        for s in &self.sections {
            cursor = cursor.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
            offsets.push(cursor);
            cursor += s.len();
        }
        let total = cursor;

        let mut toc = Vec::with_capacity(toc_len);
        for (s, &off) in self.sections.iter().zip(&offsets) {
            toc.extend_from_slice(&(off as u64).to_le_bytes());
            toc.extend_from_slice(&(s.len() as u64).to_le_bytes());
            toc.extend_from_slice(&crc32(s).to_le_bytes());
            toc.extend_from_slice(&0u32.to_le_bytes());
        }

        let mut meta_crc_src = toc.clone();
        meta_crc_src.extend_from_slice(&self.structure);
        let meta_crc = crc32(&meta_crc_src);
        let digest = fnv1a64(0, &meta_crc_src);

        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&gemm_layout_fingerprint().to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(self.structure.len() as u64).to_le_bytes());
        out.extend_from_slice(&meta_crc.to_le_bytes());
        out.extend_from_slice(&digest.to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&toc);
        out.extend_from_slice(&self.structure);
        for (s, &off) in self.sections.iter().zip(&offsets) {
            out.resize(off, 0);
            out.extend_from_slice(s);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Assembles and writes the artifact atomically (see [`write_atomic`]).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.finish())
    }
}

/// The two's-complement bytes of `v`, as stored.
fn i8s_to_bytes(v: &[i8]) -> impl Iterator<Item = u8> + '_ {
    v.iter().map(|&b| b as u8)
}

fn f32s_to_le_bytes(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decodes a packed little-endian f32 byte run into an owned vector; on
/// little-endian targets this is a single bulk copy (the decode path is on
/// the serving cold start, where per-element loops show up).
fn f32s_from_le_bytes(raw: &[u8]) -> Vec<f32> {
    debug_assert_eq!(raw.len() % 4, 0);
    let n = raw.len() / 4;
    #[cfg(target_endian = "little")]
    {
        let mut v = Vec::<f32>::with_capacity(n);
        // SAFETY: u8 -> f32 bit reinterpretation of exactly n elements into
        // freshly reserved capacity; any alignment of `raw` is fine for a
        // byte-wise copy.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), v.as_mut_ptr().cast::<u8>(), n * 4);
            v.set_len(n);
        }
        v
    }
    #[cfg(not(target_endian = "little"))]
    {
        raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
    }
}

// ----------------------------------------------------------------- reader

#[derive(Clone, Copy, Debug)]
struct SectionMeta {
    off: usize,
    len: usize,
    crc: u32,
}

/// A validated view over an `RBFNFRZ1` artifact, mmap-backed where
/// available. Header, TOC and structure stream are verified at open;
/// section payloads on demand ([`ArtifactReader::verify_sections`]).
#[derive(Debug)]
pub struct ArtifactReader {
    bytes: SharedBytes,
    mapped: bool,
    flags: u32,
    digest: u64,
    struct_off: usize,
    struct_len: usize,
    toc: Vec<SectionMeta>,
}

impl ArtifactReader {
    /// Opens `path`, preferring mmap when `prefer_map` (with transparent
    /// copy-load fallback), and eagerly validates header, TOC and
    /// structure-stream CRC.
    pub fn open(path: &Path, prefer_map: bool) -> io::Result<Self> {
        let (bytes, mapped) = SharedBytes::load(path, prefer_map)?;
        Self::from_bytes(bytes, mapped)
    }

    /// Parses and validates an in-memory (or mapped) artifact buffer.
    pub fn from_bytes(bytes: SharedBytes, mapped: bool) -> io::Result<Self> {
        let buf = bytes.as_slice();
        if buf.len() < HEADER_LEN {
            return Err(inv("artifact shorter than its header"));
        }
        if &buf[..8] != MAGIC {
            return Err(inv("bad artifact magic (not an RBFNFRZ1 file)"));
        }
        let header_crc = u32::from_le_bytes(buf[44..48].try_into().unwrap());
        if crc32(&buf[..44]) != header_crc {
            return Err(inv("artifact header CRC mismatch"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(inv(format!("unsupported artifact version {version}")));
        }
        let layout = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        if layout != gemm_layout_fingerprint() {
            return Err(inv(format!(
                "artifact packed for GEMM layout {layout:#010x}, this build uses {:#010x}",
                gemm_layout_fingerprint()
            )));
        }
        let flags = u32::from_le_bytes(buf[16..20].try_into().unwrap());
        let n = u32::from_le_bytes(buf[20..24].try_into().unwrap()) as usize;
        let struct_len = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        let meta_crc = u32::from_le_bytes(buf[32..36].try_into().unwrap());
        let digest = u64::from_le_bytes(buf[36..44].try_into().unwrap());

        let toc_len = n.checked_mul(TOC_ENTRY_LEN).ok_or_else(|| inv("TOC size overflow"))?;
        let struct_len =
            usize::try_from(struct_len).map_err(|_| inv("structure length overflow"))?;
        let struct_off = HEADER_LEN + toc_len;
        let struct_end =
            struct_off.checked_add(struct_len).ok_or_else(|| inv("structure range overflow"))?;
        if struct_end > buf.len() {
            return Err(inv("artifact truncated inside TOC/structure"));
        }
        if crc32(&buf[HEADER_LEN..struct_end]) != meta_crc {
            return Err(inv("artifact TOC/structure CRC mismatch"));
        }

        let mut toc = Vec::with_capacity(n);
        for i in 0..n {
            let e = HEADER_LEN + i * TOC_ENTRY_LEN;
            let off = u64::from_le_bytes(buf[e..e + 8].try_into().unwrap());
            let len = u64::from_le_bytes(buf[e + 8..e + 16].try_into().unwrap());
            let crc = u32::from_le_bytes(buf[e + 16..e + 20].try_into().unwrap());
            let (off, len) = (
                usize::try_from(off).map_err(|_| inv("section offset overflow"))?,
                usize::try_from(len).map_err(|_| inv("section length overflow"))?,
            );
            let end = off.checked_add(len).ok_or_else(|| inv("section range overflow"))?;
            if off < struct_end || end > buf.len() {
                return Err(inv(format!("section {i} range out of bounds")));
            }
            if !off.is_multiple_of(SECTION_ALIGN) {
                return Err(inv(format!("section {i} misaligned")));
            }
            toc.push(SectionMeta { off, len, crc });
        }
        Ok(Self { bytes, mapped, flags, digest, struct_off, struct_len, toc })
    }

    /// Caller-defined flags stored at write time.
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// FNV-1a64 content digest (covers the structure stream and every
    /// section CRC) — the artifact's identity for health reporting.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether the underlying buffer is an mmap (vs. a heap copy).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Verifies every section payload against its TOC CRC — the full-file
    /// integrity scan run before publishing a hot reload.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first corrupt section.
    pub fn verify_sections(&self) -> io::Result<()> {
        let buf = self.bytes.as_slice();
        for (i, s) in self.toc.iter().enumerate() {
            if crc32(&buf[s.off..s.off + s.len]) != s.crc {
                return Err(inv(format!("section {i} payload CRC mismatch")));
            }
        }
        Ok(())
    }

    /// A cursor over the structure stream.
    pub fn cursor(&self) -> TreeReader<'_> {
        TreeReader { r: self, pos: self.struct_off, end: self.struct_off + self.struct_len }
    }

    fn section(&self, id: u32) -> io::Result<SectionMeta> {
        self.toc
            .get(id as usize)
            .copied()
            .ok_or_else(|| inv(format!("section id {id} out of range")))
    }
}

/// A bounds-checked cursor over an artifact's structure stream, resolving
/// section references against the owning [`ArtifactReader`].
#[derive(Debug)]
pub struct TreeReader<'a> {
    r: &'a ArtifactReader,
    pos: usize,
    end: usize,
}

impl<'a> TreeReader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.end)
            .ok_or_else(|| inv("structure stream truncated"))?;
        let s = &self.r.bytes.as_slice()[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn get_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` (LE).
    pub fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` (LE bits).
    pub fn get_f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string (capped at 64 KiB).
    pub fn get_str(&mut self) -> io::Result<String> {
        let len = self.get_u32()? as usize;
        if len > 65536 {
            return Err(inv("unreasonable string length"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| inv("non-UTF-8 string"))
    }

    /// Reads an f32 array written by [`ArtifactWriter::put_f32s`].
    pub fn get_f32s(&mut self) -> io::Result<Vec<f32>> {
        let tag = self.get_u8()?;
        let len = self.get_u32()? as usize;
        let raw = match tag {
            0 => self.take(len.checked_mul(4).ok_or_else(|| inv("f32 array overflow"))?)?,
            1 => {
                let id = self.get_u32()?;
                let s = self.r.section(id)?;
                if s.len != len * 4 {
                    return Err(inv("f32 section length mismatch"));
                }
                &self.r.bytes.as_slice()[s.off..s.off + s.len]
            }
            _ => return Err(inv("bad f32 array tag")),
        };
        Ok(f32s_from_le_bytes(raw))
    }

    /// Reads an `i8` array written by [`ArtifactWriter::put_i8s`] as a
    /// [`Panel`] that *borrows* the artifact buffer (zero-copy), inline or
    /// in a section.
    pub fn get_i8s(&mut self) -> io::Result<Panel<i8>> {
        let tag = self.get_u8()?;
        let len = self.get_u32()? as usize;
        let off = match tag {
            0 => {
                self.take(len)?;
                self.pos - len
            }
            1 => {
                let s = self.r.section(self.get_u32()?)?;
                if s.len != len {
                    return Err(inv("i8 section length mismatch"));
                }
                s.off
            }
            _ => return Err(inv("bad i8 array tag")),
        };
        Panel::from_shared(self.r.bytes.clone(), off, len).map_err(inv)
    }

    /// Resolves an f32 panel reference into a [`PackedGemmA`]. On
    /// little-endian targets the panel image *borrows* the artifact buffer
    /// (zero-copy); elsewhere it is decoded into an owned buffer.
    pub fn get_panel_f32(&mut self, m: usize, k: usize) -> io::Result<PackedGemmA> {
        let id = self.get_u32()?;
        let len = self.get_u32()? as usize;
        let s = self.r.section(id)?;
        if len != PackedGemmA::image_len(m, k) || s.len != len * 4 {
            return Err(inv("f32 panel image length disagrees with its plan"));
        }
        #[cfg(target_endian = "little")]
        {
            PackedGemmA::from_shared_image(m, k, self.r.bytes.clone(), s.off).map_err(inv)
        }
        #[cfg(not(target_endian = "little"))]
        {
            let raw = &self.r.bytes.as_slice()[s.off..s.off + s.len];
            let image =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            PackedGemmA::from_owned_image(m, k, image).map_err(inv)
        }
    }

    /// Reads a dense tensor written by [`ArtifactWriter::put_tensor`].
    pub fn get_tensor(&mut self) -> io::Result<Tensor> {
        let mut dims = [0usize; 4];
        for d in &mut dims {
            *d = self.get_u32()? as usize;
        }
        let shape = Shape::new(dims[0], dims[1], dims[2], dims[3]);
        let data = self.get_f32s()?;
        Tensor::from_vec(shape, data)
            .map_err(|_| inv("tensor payload length disagrees with its shape"))
    }

    /// Bytes remaining in the structure stream.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }
}

// -------------------------------------------------- frozen layer tree codec

fn act_tag(a: EpilogueAct) -> u8 {
    match a {
        EpilogueAct::None => 0,
        EpilogueAct::Relu => 1,
        EpilogueAct::HardSwish => 2,
        EpilogueAct::HardSigmoid => 3,
    }
}

fn act_from(tag: u8) -> io::Result<EpilogueAct> {
    Ok(match tag {
        0 => EpilogueAct::None,
        1 => EpilogueAct::Relu,
        2 => EpilogueAct::HardSwish,
        3 => EpilogueAct::HardSigmoid,
        _ => return Err(inv("bad epilogue activation tag")),
    })
}

fn kind_tag(a: ActKind) -> u8 {
    match a {
        ActKind::Relu => 0,
        ActKind::HardSwish => 1,
        ActKind::HardSigmoid => 2,
        ActKind::Sigmoid => 3,
    }
}

fn kind_from(tag: u8) -> io::Result<ActKind> {
    Ok(match tag {
        0 => ActKind::Relu,
        1 => ActKind::HardSwish,
        2 => ActKind::HardSigmoid,
        3 => ActKind::Sigmoid,
        _ => return Err(inv("bad activation kind tag")),
    })
}

fn put_spec(w: &mut ArtifactWriter, s: &ConvSpec) {
    for v in [s.kh, s.kw, s.sh, s.sw, s.ph, s.pw, s.groups] {
        w.put_u32(v as u32);
    }
}

fn get_spec(r: &mut TreeReader<'_>) -> io::Result<ConvSpec> {
    let mut v = [0usize; 7];
    for d in &mut v {
        *d = r.get_u32()? as usize;
    }
    Ok(ConvSpec { kh: v[0], kw: v[1], sh: v[2], sw: v[3], ph: v[4], pw: v[5], groups: v[6] })
}

fn encode_conv(w: &mut ArtifactWriter, fc: &FusedConv) -> io::Result<()> {
    let p = fc.plan().ok_or_else(|| inv("cannot serialize an uncompiled fused conv"))?;
    put_spec(w, p.spec());
    w.put_u32(p.c_in() as u32);
    w.put_u32(p.c_out() as u32);
    w.put_u8(act_tag(p.act()));
    w.put_f32s(p.bias());
    match p.kind() {
        PlanKind::Pointwise(pa) => {
            w.put_u8(0);
            w.put_panel_f32(pa.image());
        }
        PlanKind::Depthwise { weight } => {
            w.put_u8(1);
            w.put_f32s(weight);
        }
        PlanKind::General { groups } => {
            w.put_u8(2);
            w.put_u32(groups.len() as u32);
            for pa in groups {
                w.put_panel_f32(pa.image());
            }
        }
        PlanKind::Int8 { qweight, scales } => {
            w.put_u8(3);
            w.put_f32s(scales);
            w.put_i8s(qweight.as_slice());
        }
    }
    Ok(())
}

fn decode_conv(r: &mut TreeReader<'_>) -> io::Result<FusedConv> {
    let spec = get_spec(r)?;
    let c_in = r.get_u32()? as usize;
    let c_out = r.get_u32()? as usize;
    let act = act_from(r.get_u8()?)?;
    let bias = r.get_f32s()?;
    if c_in == 0 || c_out == 0 || spec.groups == 0 {
        return Err(inv("degenerate conv header"));
    }
    let kind = match r.get_u8()? {
        0 => PlanKind::Pointwise(r.get_panel_f32(c_out, c_in)?),
        1 => PlanKind::Depthwise { weight: r.get_f32s()? },
        2 => {
            let n = r.get_u32()? as usize;
            if n != spec.groups {
                return Err(inv("group count disagrees with spec"));
            }
            let cout_g = c_out.checked_div(n).filter(|_| n > 0).ok_or_else(|| inv("bad groups"))?;
            let k = (c_in / n) * spec.kh * spec.kw;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(r.get_panel_f32(cout_g, k)?);
            }
            PlanKind::General { groups }
        }
        3 => {
            let scales = r.get_f32s()?;
            PlanKind::Int8 { qweight: r.get_i8s()?, scales }
        }
        _ => return Err(inv("bad plan kind tag")),
    };
    let plan = ConvPlan::from_parts(spec, c_in, c_out, bias, act, kind).map_err(inv)?;
    Ok(FusedConv::from_plan(plan))
}

/// Serializes a compiled [`FrozenLayer`] tree into the writer's structure
/// stream, sending packed panel images to aligned sections.
///
/// # Errors
///
/// Fails on a tree containing an uncompiled conv.
pub fn encode_layer(w: &mut ArtifactWriter, layer: &FrozenLayer) -> io::Result<()> {
    match layer {
        FrozenLayer::Identity => w.put_u8(0),
        FrozenLayer::Conv(fc) => {
            w.put_u8(1);
            encode_conv(w, fc)?;
        }
        FrozenLayer::Affine { scale, bias } => {
            w.put_u8(2);
            w.put_tensor(scale);
            w.put_tensor(bias);
        }
        FrozenLayer::Act(kind) => {
            w.put_u8(3);
            w.put_u8(kind_tag(*kind));
        }
        FrozenLayer::Linear { weight, bias } => {
            w.put_u8(4);
            w.put_tensor(weight);
            w.put_tensor(bias);
        }
        FrozenLayer::PackedLinear(p) => {
            w.put_u8(11);
            w.put_u32(p.weight.m() as u32);
            w.put_u32(p.weight.k() as u32);
            w.put_f32s(&p.bias);
            w.put_panel_f32(p.weight.image());
        }
        FrozenLayer::Upsample { factor, mode } => {
            w.put_u8(5);
            w.put_u32(*factor as u32);
            w.put_u8(match mode {
                ResizeMode::Bilinear => 0,
                ResizeMode::Nearest => 1,
            });
        }
        FrozenLayer::SpaceToDepth { block } => {
            w.put_u8(6);
            w.put_u32(*block as u32);
        }
        FrozenLayer::GlobalAvgPool => w.put_u8(7),
        FrozenLayer::SqueezeExcite { reduce, expand } => {
            w.put_u8(8);
            encode_conv(w, reduce)?;
            encode_conv(w, expand)?;
        }
        FrozenLayer::Residual(inner) => {
            w.put_u8(9);
            encode_layer(w, inner)?;
        }
        FrozenLayer::Seq(children) => {
            w.put_u8(10);
            w.put_u32(children.len() as u32);
            for c in children {
                encode_layer(w, c)?;
            }
        }
    }
    Ok(())
}

/// Deserializes a [`FrozenLayer`] tree written by [`encode_layer`]. Panel
/// images reference the artifact buffer directly where possible.
pub fn decode_layer(r: &mut TreeReader<'_>) -> io::Result<FrozenLayer> {
    Ok(match r.get_u8()? {
        0 => FrozenLayer::Identity,
        1 => FrozenLayer::Conv(Box::new(decode_conv(r)?)),
        2 => {
            let scale = r.get_tensor()?;
            let bias = r.get_tensor()?;
            FrozenLayer::Affine { scale, bias }
        }
        3 => FrozenLayer::Act(kind_from(r.get_u8()?)?),
        // An artifact that holds the raw weight packs it at load.
        4 => {
            let weight = r.get_tensor()?;
            let bias = r.get_tensor()?;
            match PackedLinear::pack(&weight, &bias, false) {
                Some(p) => FrozenLayer::PackedLinear(Box::new(p)),
                None => FrozenLayer::Linear { weight, bias },
            }
        }
        11 => {
            let (m, k) = (r.get_u32()? as usize, r.get_u32()? as usize);
            let bias = r.get_f32s()?;
            if bias.len() != m {
                return Err(inv("packed linear bias length disagrees with its weight"));
            }
            let weight = r.get_panel_f32(m, k)?;
            FrozenLayer::PackedLinear(Box::new(PackedLinear { weight, bias, _resident: None }))
        }
        5 => {
            let factor = r.get_u32()? as usize;
            let mode = match r.get_u8()? {
                0 => ResizeMode::Bilinear,
                1 => ResizeMode::Nearest,
                _ => return Err(inv("bad resize mode tag")),
            };
            FrozenLayer::Upsample { factor, mode }
        }
        6 => FrozenLayer::SpaceToDepth { block: r.get_u32()? as usize },
        7 => FrozenLayer::GlobalAvgPool,
        8 => {
            let reduce = Box::new(decode_conv(r)?);
            let expand = Box::new(decode_conv(r)?);
            FrozenLayer::SqueezeExcite { reduce, expand }
        }
        9 => FrozenLayer::Residual(Box::new(decode_layer(r)?)),
        10 => {
            let n = r.get_u32()? as usize;
            if n > 1 << 20 {
                return Err(inv("unreasonable sequence length"));
            }
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(decode_layer(r)?);
            }
            FrozenLayer::Seq(children)
        }
        _ => return Err(inv("bad frozen layer tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freeze::freeze_layer;
    use crate::layers::{BatchNorm2d, Conv2d, HardSwish};
    use crate::meter;
    use crate::module::{Layer, Sequential};
    use crate::CacheMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("revbifpn_artifact_{tag}_{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_frozen() -> (FrozenLayer, Tensor) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 12, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(12)))
            .push(Box::new(HardSwish::new()))
            .push(Box::new(Conv2d::new(12, 8, ConvSpec::kxk(3, 1), true, &mut rng)));
        let x = Tensor::randn(Shape::new(2, 6, 8, 8), 1.0, &mut rng);
        for _ in 0..2 {
            let _ = seq.forward(&x, CacheMode::Stats);
            seq.clear_cache();
        }
        (freeze_layer(&seq).unwrap(), x)
    }

    fn roundtrip(path: &Path, frozen: &FrozenLayer, prefer_map: bool) -> (FrozenLayer, bool) {
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, frozen).unwrap();
        w.save(path).unwrap();
        let r = ArtifactReader::open(path, prefer_map).unwrap();
        r.verify_sections().unwrap();
        let mut cur = r.cursor();
        let decoded = decode_layer(&mut cur).unwrap();
        assert_eq!(cur.remaining(), 0, "trailing structure bytes");
        (decoded, r.is_mapped())
    }

    #[test]
    fn layer_roundtrips_bitwise_mapped_and_copied() {
        let dir = tmp_dir("roundtrip");
        let (frozen, x) = sample_frozen();
        let want = frozen.forward(&x);
        for prefer_map in [true, false] {
            let path = dir.join(format!("m_{prefer_map}.frz"));
            let (decoded, mapped) = roundtrip(&path, &frozen, prefer_map);
            assert_eq!(mapped, prefer_map && SharedBytes::mmap_supported());
            let got = decoded.forward(&x);
            assert_eq!(got, want, "artifact forward must be bitwise equal");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn packed_linear_roundtrips_and_a_raw_one_packs_at_load() {
        // Tag 11 holds the packed panel image; tag 4 (the raw weight, as
        // written before the classifier was packed) still decodes, packed
        // at load. Both forward with the in-memory layer's bits.
        let dir = tmp_dir("linear");
        let mut rng = StdRng::seed_from_u64(13);
        let raw = crate::layers::Linear::new(1280, 1000, &mut rng).freeze().unwrap();
        let mut packed = crate::layers::Linear::new(1280, 1000, &mut rng).freeze().unwrap();
        packed.compile();
        let x = Tensor::randn(Shape::new(3, 1280, 1, 1), 1.0, &mut rng);
        for (i, frozen) in [&packed, &raw].into_iter().enumerate() {
            let (decoded, _) = roundtrip(&dir.join(format!("linear_{i}.frz")), frozen, true);
            assert!(matches!(decoded, FrozenLayer::PackedLinear(_)), "a loaded classifier is packed");
            assert_eq!(decoded.forward(&x), frozen.forward(&x), "artifact forward must be bitwise equal");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn int8_layer_roundtrips_bitwise() {
        let dir = tmp_dir("roundtrip_q");
        let mut rng = StdRng::seed_from_u64(12);
        let mut seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 12, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(12)))
            .push(Box::new(HardSwish::new()));
        let x = Tensor::randn(Shape::new(1, 6, 8, 8), 1.0, &mut rng);
        let _ = seq.forward(&x, CacheMode::Stats);
        seq.clear_cache();
        let frozen = crate::freeze::freeze_layer_int8(&seq).unwrap();
        let want = frozen.forward(&x);
        let path = dir.join("q.frz");
        let (decoded, _) = roundtrip(&path, &frozen, true);
        assert_eq!(decoded.forward(&x), want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_int8_rows_lie_inside_the_mapping() {
        // A 72-byte row block is written inline in the structure stream, a
        // 3 456-byte one as a section: both load as views of the buffer.
        let dir = tmp_dir("int8_map");
        let mut rng = StdRng::seed_from_u64(14);
        let seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 12, false, &mut rng)))
            .push(Box::new(Conv2d::new(12, 32, ConvSpec::kxk(3, 1), true, &mut rng)));
        let frozen = crate::freeze::freeze_layer_int8(&seq).unwrap();
        let path = dir.join("q.frz");
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        w.save(&path).unwrap();
        let r = ArtifactReader::open(&path, true).unwrap();
        let decoded = decode_layer(&mut r.cursor()).unwrap();
        let FrozenLayer::Seq(convs) = &decoded else { panic!("two convs stay two layers") };
        let span = r.bytes.as_ptr() as usize..r.bytes.as_ptr() as usize + r.bytes.len();
        for (conv, len) in convs.iter().zip([72, 3456]) {
            let FrozenLayer::Conv(fc) = conv else { panic!("a conv decodes as a conv") };
            let Some(PlanKind::Int8 { qweight, .. }) = fc.plan().map(ConvPlan::kind) else { panic!("an int8 plan") };
            let rows = qweight.as_slice().as_ptr_range();
            assert!(qweight.is_shared() && qweight.len() == len, "{len} int8 weights borrow the buffer");
            assert!(span.contains(&(rows.start as usize)) && rows.end as usize <= span.end);
        }
        assert_eq!(r.is_mapped(), SharedBytes::mmap_supported());
        drop(r);
        let x = Tensor::randn(Shape::new(1, 6, 8, 8), 1.0, &mut rng);
        assert_eq!(decoded.forward(&x), frozen.forward(&x), "the rows outlive the reader");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_bit_flips_never_produce_wrong_answers() {
        let (frozen, x) = sample_frozen();
        let want = frozen.forward(&x);
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        let clean = w.finish();
        // Flip one bit at a spread of positions across header, TOC,
        // structure and payload. Every flip must either fail validation or
        // land in inert padding (in which case decoding is still bitwise
        // correct) — a flip must never silently change an answer.
        for pos in (0..clean.len()).step_by(clean.len() / 37 + 1) {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            let outcome = ArtifactReader::from_bytes(SharedBytes::from_vec(bad), false)
                .and_then(|r| {
                    r.verify_sections()?;
                    decode_layer(&mut r.cursor())
                });
            if let Ok(decoded) = outcome {
                assert_eq!(
                    decoded.forward(&x),
                    want,
                    "bit flip at {pos} passed validation AND changed the output"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (frozen, _) = sample_frozen();
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        let clean = w.finish();
        for keep in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3, clean.len() / 2, clean.len() - 1] {
            let outcome =
                ArtifactReader::from_bytes(SharedBytes::from_vec(clean[..keep].to_vec()), false)
                    .and_then(|r| r.verify_sections());
            assert!(outcome.is_err(), "truncation to {keep} bytes went undetected");
        }
    }

    #[test]
    fn torn_write_leaves_destination_untouched() {
        let dir = tmp_dir("torn");
        let path = dir.join("model.frz");
        let (frozen, x) = sample_frozen();
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        w.save(&path).unwrap();
        let want = frozen.forward(&x);

        // Torn write: error reported, previous generation still loadable.
        inject_io_faults(IoFaults { torn_write: Some(100), ..Default::default() });
        assert!(w.save(&path).is_err());
        let r = ArtifactReader::open(&path, true).unwrap();
        r.verify_sections().unwrap();
        let mut cur = r.cursor();
        let decoded = decode_layer(&mut cur).unwrap();
        assert_eq!(decoded.forward(&x), want, "previous generation must survive a torn write");

        // ENOSPC: same guarantee.
        inject_io_faults(IoFaults { enospc_after: Some(256), ..Default::default() });
        let err = w.save(&path).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(ArtifactReader::open(&path, true).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_is_caught_by_validation() {
        let dir = tmp_dir("short");
        let path = dir.join("model.frz");
        let (frozen, _) = sample_frozen();
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        inject_io_faults(IoFaults { short_write: Some(40), ..Default::default() });
        w.save(&path).unwrap(); // the write "succeeds" — the FS lied
        let outcome = ArtifactReader::open(&path, true).and_then(|r| r.verify_sections());
        assert!(outcome.is_err(), "silent tail loss must fail CRC validation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_errors_are_retried_and_metered() {
        let dir = tmp_dir("retry");
        let path = dir.join("f.bin");
        let before = meter::event_count("io.retries");
        inject_io_faults(IoFaults { transient_errors: 2, ..Default::default() });
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(meter::event_count("io.retries"), before + 2);
        assert_eq!(fs::read(&path).unwrap(), b"payload");

        // A persistent transient failure exhausts the budget and errors.
        let before = meter::event_count("io.retries");
        inject_io_faults(IoFaults { transient_errors: IO_RETRY_BUDGET + 2, ..Default::default() });
        assert!(write_atomic(&path, b"p2").is_err());
        assert_eq!(meter::event_count("io.retries"), before + (IO_RETRY_BUDGET - 1) as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_fsync_failure_is_reported() {
        let dir = tmp_dir("dirsync");
        let path = dir.join("f.bin");
        inject_io_faults(IoFaults { fail_dir_fsync: true, ..Default::default() });
        assert!(write_atomic(&path, b"x").is_err(), "non-durable rename must be reported");
        clear_io_faults();
    }

    #[test]
    fn layout_fingerprint_mismatch_is_rejected() {
        let (frozen, _) = sample_frozen();
        let mut w = ArtifactWriter::new(0);
        encode_layer(&mut w, &frozen).unwrap();
        let mut bytes = w.finish();
        bytes[12] ^= 0xff; // perturb the layout fingerprint
        let fixed_crc = crc32(&bytes[..44]);
        bytes[44..48].copy_from_slice(&fixed_crc.to_le_bytes());
        let err = ArtifactReader::from_bytes(SharedBytes::from_vec(bytes), false).unwrap_err();
        assert!(err.to_string().contains("GEMM layout"), "{err}");
    }

    #[test]
    fn prune_quarantine_keeps_only_newest_corrupt_files() {
        let dir = tmp_dir("prunequar");
        // Five quarantined artifacts with strictly increasing mtimes, plus
        // bystanders that must never be touched.
        for i in 0..5 {
            fs::write(dir.join(format!("m{i}.frz.corrupt")), [i as u8]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        fs::write(dir.join("live.frz"), b"keep me").unwrap();
        fs::write(dir.join("notes.txt"), b"also me").unwrap();

        let removed = prune_quarantine(&dir, 2).unwrap();
        assert_eq!(removed, 3);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".corrupt"))
            .collect();
        left.sort();
        assert_eq!(left, vec!["m3.frz.corrupt", "m4.frz.corrupt"], "newest two survive");
        assert!(dir.join("live.frz").exists(), "non-quarantine files untouched");
        assert!(dir.join("notes.txt").exists());

        // Pruning an already-small set is a no-op; keep clamps to >= 1.
        assert_eq!(prune_quarantine(&dir, 2).unwrap(), 0);
        assert_eq!(prune_quarantine(&dir, 0).unwrap(), 1, "keep=0 still keeps one");
        fs::remove_dir_all(&dir).unwrap();
    }
}
