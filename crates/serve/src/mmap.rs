//! The snapshot file format, opened zero-copy via `mmap(2)`.
//!
//! A snapshot has one on-disk layout (version **2**), designed to be
//! *mapped* instead of read — a streaming parse would copy every float
//! into fresh tables, so load time and peak RSS would both scale with the
//! catalogue and N processes serving one snapshot would hold N copies:
//!
//! ```text
//! offset   0  magic    [u8; 4] = b"GBSN"
//! offset   4  version  u32     = 2
//! offset   8  alpha    f32     (raw bits)
//! offset  12  pad      u32     = 0
//! offset  16  4 x section descriptor (32 bytes each):
//!               rows     u64
//!               cols     u64
//!               offset   u64   (from file start, 64-byte aligned)
//!               reserved u64   = 0
//! offset 144  (zero padding to the first section offset)
//! offset 192  section data: rows*cols x f32 raw little-endian bits,
//!             row-major; sections in table order (user_own, item_own,
//!             user_social, item_social), each 64-byte aligned
//! ```
//!
//! Because every section is 64-byte aligned and stores raw `f32` bits,
//! [`open_mmap_snapshot`] maps the file `PROT_READ`/`MAP_PRIVATE` and
//! hands the kernel's pages *directly* to the scoring kernels through
//! [`Matrix::from_raw_shared`] — no parse pass, no copy, O(1) work and
//! O(1) resident memory at open time (pages fault in lazily as queries
//! touch them), and processes mapping the same file share one page-cache
//! copy. The mapping is owned by the returned snapshot's tables (an
//! `Arc` keep-alive), so it outlives every clone, slice, and cached
//! response derived from it, and is unmapped when the last user drops.
//!
//! A published file is never rewritten in place: [`save_mmap_snapshot`]
//! writes a temp file beside the path and renames it over the path, so a
//! live mapping keeps reading the file it mapped.
//!
//! The syscalls are issued directly (`mmap`/`munmap` via inline asm on
//! x86_64 and aarch64 Linux) so the crate stays dependency-free; other
//! targets — and any mapping failure — transparently fall back to a
//! heap read that produces a bit-identical snapshot through the same
//! validation path.
//!
//! ## Validation and trust
//!
//! Opening validates *structure* eagerly in O(1): magic, version, alpha
//! range, descriptor arithmetic (overflow-checked), section alignment,
//! ordering, and that every section lies inside the file — a truncated
//! or bit-flipped file yields `Err`, never a panic or an out-of-bounds
//! map access. It deliberately does **not** scan the payload for
//! non-finite values (that would fault in every page and defeat the
//! zero-copy open): the serving heap already drops non-finite scores at
//! [`TopK::push`](crate::topk::TopK::push), so a NaN smuggled into a
//! mapped table degrades to an omitted candidate, exactly like a score
//! overflow. Use [`open_mmap_snapshot_heap`] when eager full validation
//! matters more than load time: it has read every byte already, so it
//! also scans the payload and rejects a non-finite value with `Err`,
//! naming the table. The heap fallback *inside* [`open_mmap_snapshot`]
//! stays unscanned, so what that open accepts does not depend on the
//! platform. A file of any other version is rejected by version.
//!
//! [`Matrix::from_raw_shared`]: gb_tensor::Matrix::from_raw_shared

use gb_models::EmbeddingSnapshot;
use gb_tensor::Matrix;
use std::any::Any;
use std::ffi::OsString;
use std::io::{Error, ErrorKind, Result, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Raw f32 bits in the file are reinterpreted in place; that is only the
// native representation on little-endian targets (the only ones this
// workspace builds for).
#[cfg(target_endian = "big")]
compile_error!("the v2 snapshot layout assumes a little-endian host");

/// File magic identifying a gb-serve snapshot.
const MAGIC: [u8; 4] = *b"GBSN";

/// Layout version written and required by this module.
pub(crate) const MMAP_VERSION: u32 = 2;

/// Header size: magic + version + alpha + pad + 4 descriptors.
const HEADER_BYTES: usize = 16 + 4 * DESC_BYTES;

/// Bytes per section descriptor.
const DESC_BYTES: usize = 32;

/// Section alignment (cache-line; a multiple of `align_of::<f32>()`).
const SECTION_ALIGN: usize = 64;

fn invalid(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

fn align_up(offset: usize) -> usize {
    offset.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------------
// Raw mmap/munmap syscalls (no libc dependency).
// ---------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::arch::asm;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Maps `len` bytes of `fd` read-only/private from offset 0.
    /// Returns the kernel's raw result: a page-aligned address, or a
    /// negated errno in `[-4095, -1]`.
    ///
    /// # Safety
    /// `fd` must be a live, readable file descriptor and `len` nonzero
    /// (zero-length mmap is EINVAL). The caller owns the returned
    /// mapping: it must treat a `[-4095, -1]` result as an error, never
    /// dereference past `len`, and pass exactly this address/length
    /// pair to [`munmap`] exactly once.
    pub unsafe fn mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // SYS_mmap
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            out("rcx") _,
            out("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        asm!(
            "svc 0",
            in("x8") 222usize, // SYS_mmap
            inlateout("x0") 0usize => ret,
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize,
            options(nostack)
        );
        ret
    }

    /// Unmaps a region returned by [`mmap`].
    ///
    /// # Safety
    /// `ptr`/`len` must be exactly what a successful [`mmap`] returned,
    /// unmapped at most once, with no live references into the region.
    pub(crate) unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ret: isize;
        #[cfg(target_arch = "x86_64")]
        asm!(
            "syscall",
            inlateout("rax") 11isize => _ret, // SYS_munmap
            in("rdi") ptr,
            in("rsi") len,
            out("rcx") _,
            out("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        asm!(
            "svc 0",
            in("x8") 215usize, // SYS_munmap
            inlateout("x0") ptr => _ret,
            in("x1") len,
            options(nostack)
        );
    }
}

/// A read-only private file mapping, unmapped on drop.
///
/// This process never writes the pages (`PROT_READ`). `MAP_PRIVATE` does
/// not shield them from other writers: until a process writes a page of
/// its private mapping, Linux shows it the file's current bytes, and a
/// read past the end of a file truncated under the mapping is SIGBUS.
/// Handing `&[f32]` views of the pages across threads is therefore sound
/// under one precondition: nothing rewrites or truncates a published
/// snapshot file in place. [`save_mmap_snapshot`] never does (it renames
/// a new file over the path, and the mapping keeps the old inode);
/// `faults::corrupt_file` does, on files with no live mapping only.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: `ptr`/`len` describe a mapping no thread writes through, and
// which `Drop` unmaps once, from whichever thread drops it; its bytes do
// not change while it lives, given that nothing rewrites or truncates a
// published snapshot file in place (see the type's doc).
unsafe impl Send for MmapRegion {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: shared access only reads the bytes, which do not change while
// the mapping lives under the precondition above.
unsafe impl Sync for MmapRegion {}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl MmapRegion {
    /// Maps `file` whole; `None` if the kernel refuses (then the caller
    /// falls back to the heap path).
    fn map(file: &std::fs::File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None; // zero-length mmap is EINVAL
        }
        // SAFETY: `file` is a live readable descriptor for the whole
        // call and `len > 0` was checked above; error results are
        // rejected below and a success is owned by the returned region,
        // which unmaps it exactly once in `Drop`.
        let ret = unsafe { sys::mmap(len, file.as_raw_fd()) };
        if (-4095..0).contains(&ret) {
            return None;
        }
        Some(Self {
            ptr: ret as *const u8,
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe { sys::munmap(self.ptr, self.len) };
    }
}

/// What keeps a loaded snapshot's bytes alive: either the mapping itself
/// or a heap buffer (fallback path). `f32`-aligned in both cases — mmap
/// returns page-aligned addresses, and the heap buffer is backed by a
/// `Vec<f32>` — so with the 64-byte-aligned section offsets every
/// section pointer is valid for `&[f32]` reinterpretation.
enum Backing {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped(MmapRegion),
    Heap {
        words: Vec<f32>,
        len: usize,
    },
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped(region) => region.bytes(),
            Backing::Heap { words, len } => {
                // SAFETY: words owns >= len bytes of initialized data
                // (read_heap fills the f32 buffer from the file).
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }
}

/// Writes `snapshot` in the mappable v2 layout at `path`.
///
/// The bytes go to a temp file beside `path`, which is then renamed over
/// `path`. So a save never rewrites a published file: a live mapping of
/// the old file keeps the old inode and its bits, and an open sees the
/// whole old file or the whole new one. A failed save removes its temp
/// file and leaves `path` as it was.
///
/// The save is atomic for readers but not crash-durable: nothing is
/// synced, so after a power loss `path` may name a new file whose bytes
/// never reached the disk. Syncing the temp file and the directory
/// added up to ≈ 0.25 s to `serve_sharded_ivf`'s setup, which saves a
/// 32 MiB file, slower in 7 of 10 pairs.
pub fn save_mmap_snapshot(snapshot: &EmbeddingSnapshot, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let tmp = temp_sibling(path)?;
    let saved = write_v2(snapshot, &tmp).and_then(|()| std::fs::rename(&tmp, path));
    if saved.is_err() {
        // Best effort: the error being returned is the one that matters.
        let _ = std::fs::remove_file(&tmp);
    }
    saved
}

/// A name for `path`'s next temp file: hidden, in the same directory (a
/// rename across file systems would fail), and unique per process and
/// save, so concurrent saves never share one.
fn temp_sibling(path: &Path) -> Result<PathBuf> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "snapshot path names no file"))?;
    let mut tmp = OsString::from(".");
    tmp.push(name);
    let save = SAVES.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}.{save}.tmp", std::process::id()));
    Ok(path.with_file_name(tmp))
}

/// Writes the v2 layout into a new file at `path`.
fn write_v2(snapshot: &EmbeddingSnapshot, path: &Path) -> Result<()> {
    let tables = [
        snapshot.user_own(),
        snapshot.item_own(),
        snapshot.user_social(),
        snapshot.item_social(),
    ];
    // Lay out the sections first so the header can point at them.
    let mut offsets = [0usize; 4];
    let mut cursor = HEADER_BYTES;
    for (slot, m) in offsets.iter_mut().zip(tables) {
        cursor = align_up(cursor);
        *slot = cursor;
        cursor += m.len() * 4;
    }
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&MMAP_VERSION.to_le_bytes())?;
    w.write_all(&snapshot.alpha().to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    for (m, &offset) in tables.iter().zip(&offsets) {
        w.write_all(&(m.rows() as u64).to_le_bytes())?;
        w.write_all(&(m.cols() as u64).to_le_bytes())?;
        w.write_all(&(offset as u64).to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
    }
    let mut pos = HEADER_BYTES;
    let mut buf = Vec::with_capacity(64 * 1024);
    for (m, &offset) in tables.iter().zip(&offsets) {
        buf.resize(buf.len() + (offset - pos), 0u8); // alignment padding
        for v in m.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
            if buf.len() >= 64 * 1024 {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
        pos = offset + m.len() * 4;
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Opens a v2 snapshot file zero-copy: the file is mapped and the
/// returned snapshot's tables are views straight into the mapping (held
/// alive by the tables themselves — drop order is free). Falls back to
/// a bit-identical heap load on targets without the raw syscalls or if
/// the kernel refuses the mapping.
///
/// Structural corruption and truncation yield `Err` — see the module
/// docs for the validation contract.
pub fn open_mmap_snapshot(path: impl AsRef<Path>) -> Result<EmbeddingSnapshot> {
    let file = std::fs::File::open(&path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len).map_err(|_| invalid("file too large to map"))?;
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if let Some(region) = MmapRegion::map(&file, len) {
        return parse(Arc::new(Backing::Mapped(region)));
    }
    drop(file);
    read_heap(path)
}

/// [`open_mmap_snapshot`] behind a fault plan: a scripted open failure
/// ([`FaultPlan::fail_opens`](crate::faults::FaultPlan::fail_opens))
/// surfaces as the same `Err` shape a real I/O failure would, so soaks
/// can exercise the caller's recovery path without touching the disk.
/// With no failure scheduled this is exactly `open_mmap_snapshot`.
pub fn open_mmap_snapshot_faulted(
    path: impl AsRef<Path>,
    faults: &crate::faults::FaultPlan,
) -> Result<EmbeddingSnapshot> {
    if faults.fail_next_open() {
        return Err(Error::other(
            "fault injection: scripted snapshot open failure",
        ));
    }
    open_mmap_snapshot(path)
}

/// Opens a v2 snapshot through the heap path unconditionally: one read
/// into an `f32`-aligned buffer, the same validation and pointer wiring
/// as the mapped path, then a scan of every table — a non-finite value
/// is `Err(InvalidData)` naming the table. Any file both opens accept
/// loads bit-identically; use this one when the file will be truncated
/// in place, or when a poisoned payload must be refused at load rather
/// than dropped at serve time.
pub fn open_mmap_snapshot_heap(path: impl AsRef<Path>) -> Result<EmbeddingSnapshot> {
    let snapshot = read_heap(path)?;
    for (name, table) in [
        ("user_own", snapshot.user_own()),
        ("item_own", snapshot.item_own()),
        ("user_social", snapshot.user_social()),
        ("item_social", snapshot.item_social()),
    ] {
        if table.has_non_finite() {
            return Err(invalid(format!("{name} holds non-finite values")));
        }
    }
    Ok(snapshot)
}

/// The heap path without the payload scan: the mapped open's fallback.
fn read_heap(path: impl AsRef<Path>) -> Result<EmbeddingSnapshot> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(|_| invalid("file too large"))?;
    // An f32 buffer (not Vec<u8>) so section pointers are 4-aligned.
    let mut words = vec![0f32; len.div_ceil(4)];
    // SAFETY: the buffer owns len.div_ceil(4)*4 >= len initialized bytes.
    let bytes =
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 4) };
    file.read_exact(&mut bytes[..len])?;
    parse(Arc::new(Backing::Heap { words, len }))
}

/// Validates the header and wires the four tables as zero-copy views
/// into `keep`'s bytes. Every check that the snapshot constructor would
/// `assert!` is performed here first and reported as `Err`, so corrupt
/// input can never panic.
fn parse(keep: Arc<Backing>) -> Result<EmbeddingSnapshot> {
    let bytes = keep.bytes();
    if bytes.len() < HEADER_BYTES {
        return Err(invalid(format!(
            "file too short for v2 header ({} < {HEADER_BYTES} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(invalid(format!(
            "bad magic {:?}, expected {MAGIC:?}",
            &bytes[..4]
        )));
    }
    // invariant: the header-length check above guarantees every fixed-width
    // field slice below is exactly 4 or 8 bytes, so `try_into` cannot fail.
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != MMAP_VERSION {
        return Err(invalid(format!(
            "unsupported snapshot version {version} (mmap reader supports {MMAP_VERSION})"
        )));
    }
    // invariant: same header-length check — `bytes[8..12]` is exactly 4 bytes.
    let alpha = f32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
        return Err(invalid(format!("alpha {alpha} outside [0, 1]")));
    }
    let mut descs = [(0usize, 0usize, 0usize); 4];
    let mut prev_end = HEADER_BYTES;
    for (i, desc) in descs.iter_mut().enumerate() {
        let at = 16 + i * DESC_BYTES;
        // invariant: descriptor offsets stay inside the length-checked
        // header, so the 8-byte slice always exists.
        let read_u64 =
            |off: usize| u64::from_le_bytes(bytes[at + off..at + off + 8].try_into().unwrap());
        let rows = usize::try_from(read_u64(0)).map_err(|_| invalid("rows overflow"))?;
        let cols = usize::try_from(read_u64(8)).map_err(|_| invalid("cols overflow"))?;
        let offset = usize::try_from(read_u64(16)).map_err(|_| invalid("offset overflow"))?;
        let data_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| invalid(format!("section {i} dimensions overflow")))?;
        if offset % SECTION_ALIGN != 0 {
            return Err(invalid(format!("section {i} offset {offset} unaligned")));
        }
        if offset < prev_end {
            return Err(invalid(format!(
                "section {i} offset {offset} overlaps preceding data (< {prev_end})"
            )));
        }
        let end = offset
            .checked_add(data_len)
            .ok_or_else(|| invalid(format!("section {i} extent overflows")))?;
        if end > bytes.len() {
            return Err(invalid(format!(
                "section {i} [{offset}, {end}) past end of file ({} bytes) — truncated?",
                bytes.len()
            )));
        }
        prev_end = end;
        *desc = (rows, cols, offset);
    }
    let [user_own, item_own, user_social, item_social] = descs;
    if user_own.0 != user_social.0 {
        return Err(invalid("user table row mismatch"));
    }
    if item_own.0 != item_social.0 {
        return Err(invalid("item table row mismatch"));
    }
    if user_own.1 != item_own.1 {
        return Err(invalid("own embedding width mismatch"));
    }
    if user_social.1 != item_social.1 {
        return Err(invalid("social embedding width mismatch"));
    }
    let base = bytes.as_ptr();
    let table = |(rows, cols, offset): (usize, usize, usize)| {
        let keep: Arc<dyn Any + Send + Sync> = Arc::clone(&keep) as _;
        // SAFETY: [offset, offset + rows*cols*4) was bounds-checked
        // against the backing above, offset is 64-byte (hence f32-)
        // aligned into an f32-aligned backing, the bytes are immutable
        // for the backing's lifetime, and `keep` keeps them alive for
        // the matrix's lifetime.
        unsafe { Matrix::from_raw_shared(rows, cols, base.add(offset) as *const f32, keep) }
    };
    // `new_trusted` skips the non-finite scan by design (see module
    // docs); its shape/alpha asserts were all re-checked above.
    Ok(EmbeddingSnapshot::new_trusted(
        alpha,
        table(user_own),
        table(item_own),
        table(user_social),
        table(item_social),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.375,
            Matrix::from_fn(5, 3, |r, c| (r as f32 + 1.0) / (c as f32 + 2.0)),
            Matrix::from_fn(9, 3, |r, c| ((r * 3 + c) as f32 * 0.77).sin()),
            Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 1e-3),
            Matrix::from_fn(9, 4, |r, c| (r as f32 * c as f32).sqrt()),
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gb_serve_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mapped_roundtrip_is_bit_identical_and_zero_copy() {
        let snap = snapshot();
        let path = tmp("roundtrip.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let mapped = open_mmap_snapshot(&path).unwrap();
        assert_eq!(mapped, snap);
        assert!(
            mapped.user_own().is_shared(),
            "mapped tables are views, not copies"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_matches_mapped_loader() {
        let snap = snapshot();
        let path = tmp("heap.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let mapped = open_mmap_snapshot(&path).unwrap();
        let heaped = open_mmap_snapshot_heap(&path).unwrap();
        assert_eq!(mapped, heaped);
        assert_eq!(heaped, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_social_tables_roundtrip() {
        let snap = EmbeddingSnapshot::without_social(
            Matrix::from_fn(4, 2, |r, c| (r + c) as f32),
            Matrix::from_fn(6, 2, |r, c| (r * c) as f32),
        );
        let path = tmp("social_free.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        assert_eq!(open_mmap_snapshot(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    /// Every table's raw bits, plus α's.
    fn bits(snap: &EmbeddingSnapshot) -> Vec<u32> {
        let mut out = vec![snap.alpha().to_bits()];
        for m in [
            snap.user_own(),
            snap.item_own(),
            snap.user_social(),
            snap.item_social(),
        ] {
            out.extend(m.as_slice().iter().map(|v| v.to_bits()));
        }
        out
    }

    /// A snapshot of `n_items × d` item tables whose bits depend on `tag`.
    fn tagged(tag: f32, n_items: usize, d: usize) -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.25,
            Matrix::from_fn(3, d, |r, c| ((r * d + c) as f32 * 0.3 + tag).sin()),
            Matrix::from_fn(n_items, d, |r, c| ((r * d + c) as f32 * 0.7 - tag).cos()),
            Matrix::from_fn(3, d, |r, c| ((r + c) as f32 * 0.2 + tag).cos()),
            Matrix::from_fn(n_items, d, |r, c| ((r + 2 * c) as f32 * 0.1 - tag).sin()),
        )
    }

    #[test]
    fn a_same_shape_resave_leaves_an_open_mapping_its_bits() {
        let path = tmp("resave_same.gbsn2");
        let (old, new) = (tagged(0.0, 300, 16), tagged(1.0, 300, 16));
        save_mmap_snapshot(&old, &path).unwrap();
        let mapped = open_mmap_snapshot(&path).unwrap();
        assert!(mapped.item_own().is_shared(), "the open mapped the file");
        save_mmap_snapshot(&new, &path).unwrap();
        assert!(
            bits(&mapped) == bits(&old),
            "the open mapping read the re-save"
        );
        assert!(bits(&open_mmap_snapshot(&path).unwrap()) == bits(&new));
        std::fs::remove_file(&path).ok();
    }

    /// The variable that makes a run of
    /// `a_smaller_resave_never_reaches_an_open_mapping` the child, which
    /// does the re-save and the reads.
    const RESAVE_CHILD: &str = "GB_SERVE_SMALLER_RESAVE_CHILD";

    #[test]
    fn a_smaller_resave_never_reaches_an_open_mapping() {
        // Reading a mapping past the end of a file that shrank under it
        // is SIGBUS, which would kill the whole harness: the reads run in
        // a re-executed copy of this test binary, and this test checks how
        // it exited.
        if std::env::var_os(RESAVE_CHILD).is_some() {
            let path = tmp(&format!("resave_smaller.{}.gbsn2", std::process::id()));
            let old = tagged(0.0, 2000, 32);
            save_mmap_snapshot(&old, &path).unwrap();
            let mapped = open_mmap_snapshot(&path).unwrap();
            assert!(mapped.item_own().is_shared(), "the open mapped the file");
            save_mmap_snapshot(&tagged(1.0, 4, 32), &path).unwrap();
            assert!(
                bits(&mapped) == bits(&old),
                "the open mapping read the re-save"
            );
            std::fs::remove_file(&path).ok();
            return;
        }
        let name = module_path!().split_once("::").expect("crate::module").1;
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                &format!("{name}::a_smaller_resave_never_reaches_an_open_mapping"),
            ])
            .args(["--nocapture", "--test-threads=1"])
            .env(RESAVE_CHILD, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child exited {:?}\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn a_leftover_temp_file_never_shadows_the_path() {
        // A save that died between its write and its rename leaves a
        // temp file behind: the next save ignores it, and leaves none of
        // its own.
        let dir = tmp("leftover");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gbsn2");
        // Named as a save from process 0 would name it: no save of this
        // process picks the name.
        std::fs::write(dir.join(".snap.gbsn2.0.0.tmp"), b"a torn write").unwrap();
        let snap = snapshot();
        for _ in 0..2 {
            save_mmap_snapshot(&snap, &path).unwrap();
            assert_eq!(open_mmap_snapshot(&path).unwrap(), snap);
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [".snap.gbsn2.0.0.tmp", "snap.gbsn2"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapping_outlives_slices_and_clones() {
        let path = tmp("keepalive.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let view = {
            let mapped = open_mmap_snapshot(&path).unwrap();
            mapped.slice_items(2, 4)
        };
        // The original snapshot is gone; the slice still reads mapped
        // pages through its keep-alive.
        assert_eq!(view.n_items(), 4);
        assert_eq!(
            view.item_own().get(0, 0),
            snapshot().item_own().get(2, 0),
            "slice reads live mapped data"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_and_v2_readers_reject_each_other() {
        // A file in the retired streaming v1 layout (magic, version 1,
        // alpha, the first table's shape, then raw rows) is refused by
        // version on both opens; the v1 reader, which refused v2 files
        // the same way, went with its layout.
        let path = tmp("v1.gbsn");
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&0.375f32.to_le_bytes());
        v1.extend_from_slice(&5u64.to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.resize(HEADER_BYTES + 4 * SECTION_ALIGN, 0);
        std::fs::write(&path, &v1).unwrap();
        for err in [
            open_mmap_snapshot(&path).unwrap_err(),
            open_mmap_snapshot_heap(&path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(err.to_string().contains("version"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let snap = snapshot();
        let path = tmp("truncated.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [0, 3, 8, 100, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(
                open_mmap_snapshot(&path).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_headers_error_cleanly() {
        let snap = snapshot();
        let path = tmp("corrupt.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // (byte offset, value): magic, alpha sign, descriptor rows,
        // descriptor offset (unaligned), descriptor offset (past EOF).
        for (at, val) in [
            (0usize, b'X'),
            (11, 0xFFu8),
            (16, 0xEE),
            (32 + 1, 0x01),
            (32 + 3, 0x7F),
        ] {
            let mut bad = good.clone();
            bad[at] = val;
            std::fs::write(&path, &bad).unwrap();
            if let Ok(loaded) = open_mmap_snapshot(&path) {
                // A flip that keeps the structure valid must still obey
                // every snapshot invariant (no panic happened already).
                assert!(loaded.n_users() > 0);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alpha_out_of_range_rejected() {
        let snap = snapshot();
        let path = tmp("alpha.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2.5f32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = open_mmap_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("alpha"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_payload_loads_but_never_serves() {
        // The mapped open skips the payload scan by contract and TopK is
        // its NaN firewall (the heap open refuses the same files:
        // `snapshot_io::tests::non_finite_values_rejected_at_load`).
        // NaN and ±∞ at the first float of each section.
        let path = tmp("nan.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let names = ["user_own", "item_own", "user_social", "item_social"];
        for (section, name) in names.into_iter().enumerate() {
            let at = 16 + section * DESC_BYTES + 16;
            let off = u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize;
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut bytes = good.clone();
                bytes[off..off + 4].copy_from_slice(&poison.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                let engine = crate::engine::QueryEngine::new(open_mmap_snapshot(&path).unwrap());
                for user in 0..5u32 {
                    let top = engine.try_recommend(user, 9).unwrap();
                    assert!(top.iter().all(|e| e.score.is_finite()), "{name} {poison}");
                    // Item 0's row (or user 0's) scores non-finite
                    // against every partner: dropped, not ranked.
                    let want = match (section % 2, user) {
                        (1, _) => 8,
                        (0, 0) => 0,
                        _ => 9,
                    };
                    assert_eq!(top.len(), want, "{name} {poison} user {user}");
                    assert!(section % 2 == 0 || top.iter().all(|e| e.item != 0));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
