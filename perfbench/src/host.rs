//! Host-side measurements: a counting global allocator (installed only
//! in this binary, so the benchmark can report heap allocations per op
//! without touching the program's allocator), peak resident memory, the
//! thread CPU clock host times are taken with, and the reference work
//! they are normalized by.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts every allocation and its size.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a fresh allocation of `new_size` bytes as far as
        // the heap's work is concerned.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes allocated)` since the process started.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// CPU time this thread has run, from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.
///
/// Host metrics use it instead of wall time: on a shared virtual
/// machine the hypervisor takes the vCPU away for stretches of a round
/// (steal time), which wall time counts and thread CPU time does not.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Host times are reported in CPU seconds of a reference host on which
/// the whole [`Reference`] work takes this long. (On the 2-vCPU Intel
/// Xeon virtual machine the bounds were set on, it takes about 0.06 s.)
pub const REFERENCE_S: f64 = 0.05;

/// Iterations of the whole reference work.
pub const REFERENCE_ITERATIONS: u64 = 20_000;

/// A fixed reference work load, run in slices spread over a measured
/// window; the CPU time the slices take is the host's speed over that
/// window, to normalize host times by.
///
/// The speed of the shared host drifts by ±15% within seconds, and the
/// simulator slows down and speeds up with it. One reference run before
/// and after a round samples only two instants of that drift; slices
/// interleaved with the round sample all of it. The work mixes what the
/// simulator spends its time on: hashing, tree lookups, small and
/// page-sized heap allocations, dynamic calls, and a block of
/// add-rotate-xor rounds like the REST signature's hashing. It uses only
/// the standard library, so no change to the program can move it.
pub struct Reference {
    x: u64,
    acc: u64,
    i: u64,
    map: HashMap<u64, Vec<u8>>,
    tree: BTreeMap<u64, u64>,
    /// CPU time the slices have taken so far.
    pub spent: Duration,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            x: 0x9E37_79B9_7F4A_7C15,
            acc: 0,
            i: 0,
            map: HashMap::new(),
            tree: BTreeMap::new(),
            spent: Duration::ZERO,
        }
    }
}

impl Reference {
    /// Runs the next `iterations` iterations of the work and adds their
    /// CPU time to [`Reference::spent`].
    pub fn slice(&mut self, iterations: u64) {
        let t = thread_cpu();
        for _ in 0..iterations {
            self.step();
        }
        self.spent += thread_cpu() - t;
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn step(&mut self) {
        let i = self.i;
        self.i += 1;
        let len = 64 + (self.next() % 960) as usize;
        let k = self.next() % 8192;
        self.map.insert(k, vec![i as u8; len]);
        let k = self.next() % 65_536;
        self.tree.insert(k, i);
        let k = self.next() % 8192;
        if let Some(v) = self.map.get(&k) {
            self.acc = self.acc.wrapping_add(v.len() as u64);
        }
        if i.is_multiple_of(3) {
            let k = self.next() % 8192;
            self.map.remove(&k);
        }
        let k = self.next() % 65_536;
        if let Some((_, v)) = self.tree.range(k..).next() {
            self.acc ^= *v;
        }
        let mut page = black_box(vec![0u8; 4096]);
        page[(i % 4096) as usize] = 1;
        self.acc = self
            .acc
            .wrapping_add(page.iter().map(|&b| u64::from(b)).sum::<u64>());
        let step: Box<dyn Fn(u64) -> u64> = if i.is_multiple_of(2) {
            Box::new(|y| y + 1)
        } else {
            Box::new(|y| y.wrapping_mul(3))
        };
        self.acc = step(black_box(self.acc));
        let (mut a, mut b, mut c, mut d) = (self.acc, i, self.acc ^ 0x51, i ^ 0x77);
        for _ in 0..48 {
            a = a.wrapping_add(b);
            b = b.rotate_left(13) ^ a;
            c = c.wrapping_add(d);
            d = d.rotate_left(16) ^ c;
            a = a.rotate_left(32);
            c = c.wrapping_add(b);
            b = b.rotate_left(17) ^ c;
        }
        self.acc ^= black_box(a ^ b ^ c ^ d);
    }
}
