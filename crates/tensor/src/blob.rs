//! Shared immutable byte buffers: heap-owned or memory-mapped from a file.
//!
//! [`SharedBytes`] is the storage substrate of the zero-copy frozen-model
//! artifact path: an `Arc`-shared, read-only byte region that is either an
//! owned heap buffer (the copy-load fallback, and the in-memory path) or a
//! file mapping established with raw `mmap(2)`/`munmap(2)` syscalls — the
//! workspace deliberately has no libc binding, so the mapping is issued
//! directly on x86_64 Linux and every other target transparently falls back
//! to copy-loading.
//!
//! Packed GEMM panels ([`crate::PackedGemmA`]) and int8 conv rows
//! ([`crate::PlanKind::Int8`]) can borrow sub-ranges of a `SharedBytes`
//! directly (see [`Panel`]), so a frozen model deserialized from a mapped
//! artifact references the page cache instead of copying tens of megabytes
//! of weight panels — that is what makes millisecond cold-starts possible.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw read-only file mappings via direct x86_64 Linux syscalls.

    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An established read-only private mapping. Unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Map {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only and its address/length never change after
    // construction, so shared references from any thread are sound.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn ptr(&self) -> *const u8 {
            self.ptr
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // Nothing useful can be done on munmap failure; the region is
            // leaked rather than risking a double-unmap.
            unsafe {
                let _ = syscall6(SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0);
            }
        }
    }

    #[inline]
    unsafe fn syscall6(nr: isize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// Maps the first `len` bytes of `file` read-only. `len` must be
    /// non-zero (a zero-length mmap is EINVAL by contract).
    pub(super) fn map_readonly(file: &File, len: usize) -> io::Result<Map> {
        debug_assert!(len > 0);
        let fd = file.as_raw_fd();
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Map { ptr: ret as *const u8, len })
    }
}

#[derive(Debug)]
enum Inner {
    Owned(Vec<u8>),
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped(sys::Map),
}

/// An immutable, cheaply clonable (`Arc`-shared) byte buffer that is either
/// heap-owned or a read-only file mapping. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SharedBytes {
    inner: Arc<Inner>,
}

impl SharedBytes {
    /// Wraps an owned heap buffer.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self { inner: Arc::new(Inner::Owned(v)) }
    }

    /// Copy-loads a whole file into an owned buffer.
    pub fn read_file(path: &Path) -> io::Result<Self> {
        Ok(Self::from_vec(std::fs::read(path)?))
    }

    /// Whether this build can memory-map files at all.
    pub fn mmap_supported() -> bool {
        cfg!(all(target_os = "linux", target_arch = "x86_64"))
    }

    /// Memory-maps a whole file read-only.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] on targets without the raw-syscall
    /// mapping path; otherwise whatever `open(2)`/`mmap(2)` report. An empty
    /// file loads as an empty owned buffer (zero-length mappings are
    /// invalid).
    pub fn map_file(path: &Path) -> io::Result<Self> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(Self::from_vec(Vec::new()));
            }
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            let map = sys::map_readonly(&file, len)?;
            Ok(Self { inner: Arc::new(Inner::Mapped(map)) })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = File::open(path)?;
            Err(io::Error::new(io::ErrorKind::Unsupported, "mmap unavailable on this target"))
        }
    }

    /// Loads a file, preferring mmap when asked for and available; returns
    /// the buffer and whether it is actually a mapping. A failed mapping
    /// attempt (unsupported target, exotic filesystem) falls back to
    /// copy-loading rather than erroring.
    pub fn load(path: &Path, prefer_map: bool) -> io::Result<(Self, bool)> {
        if prefer_map {
            match Self::map_file(path) {
                Ok(b) => {
                    let mapped = b.is_mapped();
                    return Ok((b, mapped));
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
                Err(_) => {}
            }
        }
        Ok((Self::read_file(path)?, false))
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        match &*self.inner {
            Inner::Owned(v) => v.len(),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped(m) => m.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base pointer of the region.
    pub fn as_ptr(&self) -> *const u8 {
        match &*self.inner {
            Inner::Owned(v) => v.as_ptr(),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped(m) => m.ptr(),
        }
    }

    /// The whole buffer as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        match &*self.inner {
            Inner::Owned(v) => v,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped(m) => unsafe { std::slice::from_raw_parts(m.ptr(), m.len()) },
        }
    }

    /// Whether the buffer is a file mapping (as opposed to owned heap).
    pub fn is_mapped(&self) -> bool {
        match &*self.inner {
            Inner::Owned(_) => false,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Mapped(_) => true,
        }
    }
}

/// Element types a [`Panel`] may reinterpret raw bytes as: plain old data
/// for which every bit pattern is a valid value. Sealed.
pub trait PanelElem: Copy + sealed::Sealed {}

impl PanelElem for f32 {}
impl PanelElem for i8 {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for i8 {}
}

/// Backing storage of a frozen weight image (packed GEMM panels, int8
/// rows): an owned vector or a typed view into a [`SharedBytes`] range
/// (validated for bounds and alignment at construction).
#[derive(Clone, Debug)]
pub struct Panel<T>(Repr<T>);

#[derive(Clone, Debug)]
enum Repr<T> {
    /// Heap-owned elements (the pack-at-freeze path).
    Owned(Vec<T>),
    /// A borrowed range of a shared buffer (the zero-copy artifact path).
    Shared {
        /// The owning buffer, kept alive for as long as this panel exists.
        bytes: SharedBytes,
        /// Byte offset of the first element.
        offset: usize,
        /// Element count.
        len: usize,
    },
}

impl<T: PanelElem> From<Vec<T>> for Panel<T> {
    fn from(v: Vec<T>) -> Self {
        Self(Repr::Owned(v))
    }
}

impl<T: PanelElem> Panel<T> {
    /// A view of `len` elements at byte `offset` of `bytes`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-bounds ranges and offsets misaligned for `T`.
    pub fn from_shared(bytes: SharedBytes, offset: usize, len: usize) -> Result<Self, &'static str> {
        let elem = std::mem::size_of::<T>();
        let span = len.checked_mul(elem).ok_or("panel length overflows")?;
        let end = offset.checked_add(span).ok_or("panel range overflows")?;
        if end > bytes.len() {
            return Err("panel range exceeds the shared buffer");
        }
        if !(bytes.as_ptr() as usize + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err("panel offset misaligned for the element type");
        }
        Ok(Self(Repr::Shared { bytes, offset, len }))
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Shared { bytes, offset, len } => unsafe {
                // Bounds and alignment were validated by `from_shared`, every
                // bit pattern is a `T` (`PanelElem`), and the buffer is
                // immutable and kept alive by `bytes`.
                std::slice::from_raw_parts(bytes.as_ptr().add(*offset).cast::<T>(), *len)
            },
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Owned(v) => v.len(),
            Repr::Shared { len, .. } => *len,
        }
    }

    /// Whether the panel holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the panel borrows a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Repr::Shared { .. })
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip() {
        let b = SharedBytes::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_mapped());
        let c = b.clone();
        assert_eq!(c.as_ptr(), b.as_ptr(), "clones share the allocation");
    }

    #[test]
    fn map_file_matches_read_file() {
        let dir = std::env::temp_dir().join(format!("revbifpn_blob_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map_test.bin");
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();

        let copied = SharedBytes::read_file(&path).unwrap();
        assert_eq!(copied.as_slice(), &payload[..]);

        if SharedBytes::mmap_supported() {
            let mapped = SharedBytes::map_file(&path).unwrap();
            assert!(mapped.is_mapped());
            assert_eq!(mapped.as_slice(), &payload[..]);
            // Mappings are page-aligned, which is stronger than any element
            // alignment the panels require.
            assert_eq!(mapped.as_ptr() as usize % 4096, 0);
        }

        let (loaded, mapped) = SharedBytes::load(&path, true).unwrap();
        assert_eq!(loaded.as_slice(), &payload[..]);
        assert_eq!(mapped, SharedBytes::mmap_supported());
        let (loaded, mapped) = SharedBytes::load(&path, false).unwrap();
        assert!(!mapped);
        assert_eq!(loaded.as_slice(), &payload[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_as_owned_empty() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("revbifpn_blob_empty_{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        if SharedBytes::mmap_supported() {
            let b = SharedBytes::map_file(&path).unwrap();
            assert!(b.is_empty());
            assert!(!b.is_mapped());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panel_validates_bounds_and_alignment() {
        let b = SharedBytes::from_vec(vec![0u8; 64]);
        let align = b.as_ptr() as usize % 4;
        let ok_off = (4 - align) % 4;
        assert!(Panel::<f32>::from_shared(b.clone(), ok_off, 8).is_ok());
        assert!(Panel::<f32>::from_shared(b.clone(), ok_off, 17).is_err(), "past the end");
        assert!(Panel::<f32>::from_shared(b.clone(), ok_off + 1, 4).is_err(), "misaligned");
        assert!(Panel::<i8>::from_shared(b.clone(), 63, 1).is_ok());
        assert!(Panel::<i8>::from_shared(b, 63, 2).is_err());
    }

    #[test]
    fn shared_panel_reads_through() {
        let mut raw = vec![0u8; 4 + 12];
        let vals = [1.5f32, -2.0, 3.25];
        for (i, v) in vals.iter().enumerate() {
            raw[4 + i * 4..4 + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let b = SharedBytes::from_vec(raw);
        let off = if (b.as_ptr() as usize + 4).is_multiple_of(4) { 4 } else { 0 };
        // Vec<u8> allocations are at least word-aligned in practice; offset 4
        // keeps f32 alignment.
        let p = Panel::<f32>::from_shared(b, off, 3).unwrap();
        if off == 4 {
            assert_eq!(p.as_slice(), &vals[..]);
        }
        assert!(p.is_shared());
        assert_eq!(p.len(), 3);
    }
}
