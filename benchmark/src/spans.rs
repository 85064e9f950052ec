//! The benchmark's own spans: one around every call into a layer.
//!
//! [`Recorder::time`] is the only stopwatch in the benchmark, so every
//! reported timing *is* a span. With tracing off it only measures; in
//! the traced pass it also keeps the span — name, start, end, parent
//! and the id of the cell or request it belongs to — in memory until
//! [`Recorder::to_json`] writes them out at exit.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;
use study_core::json::Json;

/// One recorded span. Its id is its index in the recorder.
#[derive(Debug, Clone)]
pub struct Span {
    /// The span that was open on this thread when this one started.
    pub parent: Option<usize>,
    /// Cell or request id shared by the spans of one cell (0 = none).
    pub cell: u32,
    /// `<layer>.<call>` label.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Makes `parent` the parent of the spans this thread opens next — how
/// a client thread hangs its request spans under the phase that spawned
/// it.
pub fn adopt(parent: Option<usize>) {
    CURRENT.with(|c| c.set(parent));
}

/// The span currently open on this thread.
pub fn current() -> Option<usize> {
    CURRENT.with(Cell::get)
}

/// Stopwatch and span store.
#[derive(Debug)]
pub struct Recorder {
    keep: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `keep` (the traced pass).
    pub fn new(keep: bool) -> Recorder {
        Recorder {
            keep,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span was being pushed when its thread panicked")
    }

    /// Runs `f`, returning its value and its wall time in seconds.
    pub fn time<T>(&self, name: &str, cell: u32, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.keep {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let parent = current();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                parent,
                cell,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        adopt(Some(id));
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        adopt(parent);
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = start_ns + elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }

    /// Every kept span with its self time (duration minus the part its
    /// children cover), as the `spans` array of the trace file.
    pub fn to_json(&self) -> Json {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut o = Json::obj();
                    o.push("id", id as u64);
                    match s.parent {
                        Some(p) => o.push("parent", p as u64),
                        None => o.push("parent", Json::Null),
                    };
                    o.push("cell", u64::from(s.cell));
                    o.push("name", s.name.as_str());
                    o.push("start_ns", s.start_ns);
                    o.push("end_ns", s.end_ns);
                    // Children on other threads can overlap each other,
                    // so a parent's self time bottoms out at zero.
                    o.push(
                        "self_ns",
                        (s.end_ns - s.start_ns).saturating_sub(child_ns[id]),
                    );
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let rec = Recorder::new(true);
        rec.time("outer", 7, || {
            rec.time("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.lock().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(current(), None, "the stack unwinds");
        let Json::Arr(items) = rec.to_json() else {
            panic!("array")
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let (v, secs) = rec.time("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(rec.lock().is_empty());
    }
}
