//! Spans recorded from the benchmark's own files around calls into each
//! layer, kept in memory and written out when the run ends; self-time
//! arithmetic; and a counting global allocator that counts only while a
//! traced section asks it to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters, bumped only under `--trace`.
pub struct CountingAllocator;

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` as `System::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far, whole process.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Shared by the spans of one op or flow.
    pub trace: u64,
    pub span: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations counted between start and end (whole process).
    pub allocs: u64,
}

/// Where a span started: its clock reading and the allocation count then.
#[derive(Clone, Copy)]
pub struct Mark {
    at: Instant,
    allocs: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_span: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_span: 0,
            spans: Vec::new(),
        }
    }

    pub fn mark(&self) -> Mark {
        Mark {
            at: Instant::now(),
            allocs: allocations().0,
        }
    }

    /// Reserve an id, for a parent recorded after its children.
    pub fn reserve(&mut self) -> u32 {
        self.next_span += 1;
        self.next_span
    }

    /// Record a span from `mark` to now under a reserved id.
    pub fn close(&mut self, span: u32, trace: u64, parent: u32, name: &'static str, mark: Mark) {
        self.put(
            span,
            trace,
            parent,
            name,
            mark.at,
            Instant::now(),
            mark.allocs,
        );
    }

    /// Record a span around `work`.
    pub async fn time<T>(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        work: impl std::future::Future<Output = T>,
    ) -> T {
        let mark = self.mark();
        let out = work.await;
        self.record(trace, parent, name, mark);
        out
    }

    /// Record a span from `mark` to now.
    pub fn record(&mut self, trace: u64, parent: u32, name: &'static str, mark: Mark) {
        let span = self.reserve();
        self.close(span, trace, parent, name, mark);
    }

    /// Record a span between two instants seen elsewhere (flow hops);
    /// returns its id, for children recorded after it.
    pub fn record_between(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = self.reserve();
        self.put(span, trace, parent, name, start, end, allocations().0);
        span
    }

    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        span: u32,
        trace: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        allocs_at_start: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            allocs: allocations().0.saturating_sub(allocs_at_start),
        });
    }

    /// One JSON object per line: `{trace, span, parent, name, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span id: its duration minus the part of that interval its direct
/// children cover (children may overlap each other), in ns.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.span).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.span, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Self time and allocations summed per span name, with the number of
/// spans of that name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub allocs: u64,
}

pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: HashMap<&'static str, NameTotal> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_ns += own[&s.span];
        t.total_ns += s.end_ns - s.start_ns;
        t.allocs += s.allocs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "encode", 10, 30),
            span(3, 1, "store", 40, 70),
            // Overlaps `store` and runs past the parent's end: only
            // [70, 100) is newly covered.
            span(4, 1, "frame", 60, 120),
            span(5, 3, "wal", 45, 55),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - (20 + 30 + 30));
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 10);
        assert_eq!(own[&4], 60);
        assert_eq!(own[&5], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["op"].self_ns, 20);
        assert_eq!(by_name["store"].total_ns, 30);
    }

    #[test]
    fn a_parent_may_be_recorded_after_its_children() {
        let mut on = Tracer::new();
        let root = on.reserve();
        let m = on.mark();
        on.record(1, root, "child", m);
        on.close(root, 1, 0, "op", m);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[0].parent, on.spans[1].span);
    }
}
