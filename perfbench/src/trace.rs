//! Spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. A
//! span opened with no enclosing span on its thread starts a new request;
//! nested spans inherit it. Spans are kept in memory while recording is
//! on and written out when the benchmark ends. With recording off,
//! [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_recording(on: bool) {
    now_ns();
    RECORDING.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let (parent, request) = match open.last() {
            Some(&(parent, request)) => (parent, request),
            None => (0, NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)),
        };
        open.push((id, request));
        (parent, request)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span store poisoned").push(Span {
        name,
        id,
        parent,
        request,
        start_ns,
        end_ns,
    });
    out
}

/// Removes and returns every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per span name: (count, total µs, self µs), where self time is the
/// span's duration minus the time its child spans cover.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = (s.end_ns - s.start_ns) as f64 / 1e3;
        let children = child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e3;
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += (total - children).max(0.0);
    }
    rows.into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Durations in µs of every span named `name` recorded so far.
pub fn durations_us(name: &str) -> crate::stats::Samples {
    let mut out = crate::stats::Samples::default();
    for s in SPANS.lock().expect("span store poisoned").iter() {
        if s.name == name {
            out.push(s.micros());
        }
    }
    out
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {}, \"parent\": {}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_request_and_split_self_time() {
        set_recording(true);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        set_recording(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, outer.request);
        let rows = summary(&spans);
        let (_, _, total, self_us) = rows.iter().find(|r| r.0 == "outer").copied().unwrap();
        assert!(self_us < total && total >= 2000.0);
    }
}
