//! Measurement probes: a counting allocator, the process CPU clock, peak
//! resident memory, and the span recorder that attributes a pass's time to
//! the layers it calls into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
///
/// The count is a statistic that publishes no other data, so `Relaxed`
/// suffices; it is read only on the main thread after worker threads have
/// been joined, and the join orders their increments before the read.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (and reallocations) made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of the process, nanoseconds.
///
/// Process-wide rather than `/proc/thread-self/schedstat`: the serve layer
/// runs its shards on worker threads that exit before the span around the
/// call closes, and their CPU time must still land in that span.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and the clock id is a constant
    // the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One recorded span: a call into a layer, or a whole pass (the root).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The operation (scenario, app, serve run) the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub allocs: u64,
}

/// Records spans in memory when tracing is on; a pass-through otherwise.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans that follow with an operation id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `body` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return body(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
            allocs: 0,
        });
        self.stack.push(idx);
        let (a0, c0) = (allocs(), process_cpu_ns());
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let out = body(self);
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let (c1, a1) = (process_cpu_ns(), allocs());
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.start_ns = t0;
        span.end_ns = t1;
        span.cpu_ns = c1 - c0;
        span.allocs = a1 - a0;
        out
    }

    /// A span around a single call into a layer.
    pub fn layer<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        self.span(name, |_| body())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a Chrome trace (open it in Perfetto or
    /// `chrome://tracing`); `args` carries each span's parent, op id, CPU
    /// time and allocation count.
    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"cpu_us\":{:.3},\"allocs\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.cpu_ns as f64 / 1e3,
                s.allocs,
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Self cost of one span: its own cost minus its direct children's.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfCost {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub allocs: u64,
}

/// Self costs of every span, indexed like `spans`.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut costs: Vec<SelfCost> = spans
        .iter()
        .map(|s| SelfCost {
            wall_ns: s.end_ns - s.start_ns,
            cpu_ns: s.cpu_ns,
            allocs: s.allocs,
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let c = &mut costs[p];
            c.wall_ns = c.wall_ns.saturating_sub(s.end_ns - s.start_ns);
            c.cpu_ns = c.cpu_ns.saturating_sub(s.cpu_ns);
            c.allocs = c.allocs.saturating_sub(s.allocs);
        }
    }
    costs
}

/// Median of a sample (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
