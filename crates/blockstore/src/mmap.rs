//! A minimal read-only `mmap` wrapper, hand-rolled over raw syscalls to
//! keep the workspace zero-dependency (no `libc`, no `memmap2`).
//!
//! # Safety argument
//!
//! The wrapper is only ever used by [`crate::FileMedium`] under these
//! invariants, which together make the exposed `&[u8]` sound:
//!
//! 1. **Append-only files.** Chunk and WAL files are never written in the
//!    middle; bytes below a mapping's length never change after the map is
//!    taken, so no writer mutates memory we hand out as `&[u8]`.
//! 2. **Mapped length is captured at map time** and only offsets inside
//!    `[0, len)` are exposed ([`Mmap::slice`] is bounds-checked); a file that
//!    grew since mapping is *remapped*, never read past the captured length.
//! 3. **Files are never truncated while mapped.** Shrinking a mapped file
//!    would turn in-bounds accesses into SIGBUS; every FileMedium path that
//!    truncates or rewrites (WAL repair, crash simulation, replica trim)
//!    drops the mapping cache entry for the file *first* and recreates the
//!    file under a new inode (`delete` + re-append), so live maps keep
//!    referring to the old, unchanged inode.
//! 4. **Unlink-while-mapped is safe on unix**: the inode stays alive until
//!    the last mapping is gone, so a reader holding a map of a deleted chunk
//!    still sees stable bytes.
//! 5. The mapping is `PROT_READ`/`MAP_SHARED`; we never write through it,
//!    and `Drop` unmaps exactly the `(ptr, len)` pair returned by `mmap`.
//!
//! On non-unix targets the "map" degrades to reading the file into a heap
//! buffer — same interface, no `unsafe`.

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only mapping of the first `len` bytes of a file.
#[cfg(unix)]
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is immutable for its lifetime (see module invariants);
// a raw pointer to immutable, never-freed-while-alive memory is safe to
// share and send across threads.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Mmap {
    /// Map `len` bytes of `file` read-only. `len == 0` yields an empty map
    /// without touching the syscall (POSIX rejects zero-length mappings).
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file descriptor for the duration of the
        // call; PROT_READ/MAP_SHARED with offset 0 has no preconditions on
        // our memory. The result is checked against MAP_FAILED below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes `[offset, offset + len)`, or `None` when out of
    /// bounds of the mapped region.
    pub fn slice(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        if len == 0 {
            return Some(&[]);
        }
        // SAFETY: offset+len <= self.len was just checked; the region
        // [ptr, ptr+self.len) is a live PROT_READ mapping whose bytes never
        // change (module invariants 1–3), so a shared slice is sound.
        Some(unsafe { std::slice::from_raw_parts((self.ptr as *const u8).add(offset), len) })
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: (ptr, len) is exactly what mmap returned and has not
            // been unmapped before (Drop runs once).
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

/// Portable fallback: "map" by reading into a heap buffer.
#[cfg(not(unix))]
pub struct Mmap {
    buf: Vec<u8>,
}

#[cfg(not(unix))]
impl Mmap {
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = vec![0u8; len];
        let mut f = file.try_clone()?;
        use std::io::Seek;
        f.seek(io::SeekFrom::Start(0))?;
        f.read_exact(&mut buf)?;
        Ok(Mmap { buf })
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn slice(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        self.buf.get(offset..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("vh-mmap-test-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn maps_and_slices() {
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let path = tmpfile("basic", &data);
        let f = File::open(&path).unwrap();
        let m = Mmap::map(&f, data.len()).unwrap();
        assert_eq!(m.len(), data.len());
        assert_eq!(m.slice(0, data.len()).unwrap(), &data[..]);
        assert_eq!(m.slice(100, 32).unwrap(), &data[100..132]);
        assert_eq!(m.slice(data.len(), 0).unwrap(), &[] as &[u8]);
        assert!(m.slice(data.len(), 1).is_none());
        assert!(m.slice(usize::MAX, 2).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmpfile("empty", &[]);
        let f = File::open(&path).unwrap();
        let m = Mmap::map(&f, 0).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.slice(0, 0).unwrap(), &[] as &[u8]);
        assert!(m.slice(0, 1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_shorter_than_file_is_capped() {
        let data = vec![7u8; 1000];
        let path = tmpfile("short", &data);
        let f = File::open(&path).unwrap();
        // Map only a prefix: the captured length gates all slices.
        let m = Mmap::map(&f, 100).unwrap();
        assert_eq!(m.len(), 100);
        assert!(m.slice(0, 101).is_none());
        assert_eq!(m.slice(0, 100).unwrap(), &data[..100]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unlink_while_mapped_keeps_bytes_readable() {
        let data = vec![0xABu8; 512];
        let path = tmpfile("unlink", &data);
        let f = File::open(&path).unwrap();
        let m = Mmap::map(&f, data.len()).unwrap();
        drop(f);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(m.slice(0, 512).unwrap(), &data[..]);
    }
}
