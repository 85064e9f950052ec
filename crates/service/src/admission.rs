//! Admission control: cost classes, concurrency limits, bounded queues
//! and load shedding.
//!
//! The controller guards the server's shared resources (the galois-rt
//! pool and the `STUDY_MEM_BUDGET` accumulator budget, which bounds the
//! accumulators jobs allocate per call) with a unit-based concurrency
//! limit. Requests are classified [`CostClass::Cheap`]
//! (frontier problems whose working set is a few vertex-length arrays)
//! or [`CostClass::Expensive`] (tc/ktruss, whose accumulators dominate
//! the budget, and batched queries, which hold their grant for `k`
//! runs). Expensive work can never occupy
//! the last capacity unit, so a cheap bfs is always admittable the
//! moment a slot frees — it cannot head-of-line block behind a ktruss.
//!
//! Back-pressure is bounded in both dimensions: each class has a queue
//! cap (overflow is shed immediately with a retryable rejection rather
//! than queued forever) and each queued request waits at most until its
//! deadline. The `svc.admit` fault point injects transient rejections
//! for chaos coverage.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use study_core::batch::BatchProblem;
use study_core::problem::Problem;
use substrate::sync::{Condvar, Mutex};

/// Units an expensive job would like to occupy (clamped to what the
/// configured capacity allows).
const EXPENSIVE_UNITS: u32 = 4;

/// Bytes of `STUDY_MEM_BUDGET` backing one admission unit when the
/// capacity is derived from the budget rather than set explicitly.
const BYTES_PER_UNIT: u64 = 64 * 1024 * 1024;

/// Request cost classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Frontier problems: bfs, cc, pr, sssp. One unit.
    Cheap,
    /// Materialization-heavy work: tc, ktruss, batched queries.
    Expensive,
}

impl CostClass {
    /// Classifies one of the six study problems.
    pub fn of_problem(problem: Problem) -> CostClass {
        match problem {
            Problem::Bfs | Problem::Cc | Problem::Pr | Problem::Sssp => CostClass::Cheap,
            Problem::Tc | Problem::Ktruss => CostClass::Expensive,
        }
    }

    /// Classifies a batched query (always expensive: its `k` serial runs
    /// hold one admission grant for the whole batch).
    pub fn of_batch(_problem: BatchProblem) -> CostClass {
        CostClass::Expensive
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Cheap => "cheap",
            CostClass::Expensive => "expensive",
        }
    }

    fn index(self) -> usize {
        match self {
            CostClass::Cheap => 0,
            CostClass::Expensive => 1,
        }
    }
}

/// Why an acquire did not admit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The request was shed. `retryable` distinguishes budget-class
    /// rejections (capacity zero, queue overflow, injected transient)
    /// from deterministic ones (server draining).
    Rejected {
        /// Human-readable reason, surfaced to the client.
        reason: String,
        /// Whether backing off and retrying may succeed.
        retryable: bool,
    },
    /// The request's deadline expired while it was queued.
    DeadlineExpired,
}

/// Admission limits. See [`AdmissionConfig::from_env`] for the knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Concurrency capacity in units (0 sheds everything).
    pub capacity: u32,
    /// Maximum requests queued per cost class before overflow is shed.
    pub queue_cap: u32,
}

impl AdmissionConfig {
    /// Derives the limits from the environment: `STUDY_SVC_MAX_INFLIGHT`
    /// when set (0 allowed — it sheds all work, the zero-budget chaos
    /// leg); otherwise one unit per 64 MiB of `STUDY_MEM_BUDGET`;
    /// otherwise 8 units.
    ///
    /// # Panics
    ///
    /// Panics when `STUDY_SVC_MAX_INFLIGHT` is set to a non-integer, or
    /// where [`graphblas::ops::Policy::from_env`] does.
    pub fn from_env() -> AdmissionConfig {
        let capacity = match std::env::var("STUDY_SVC_MAX_INFLIGHT") {
            Ok(v) if !v.trim().is_empty() => v.trim().parse().unwrap_or_else(|e| {
                panic!("STUDY_SVC_MAX_INFLIGHT must be a unit count, got {v:?}: {e}")
            }),
            _ => match graphblas::ops::Policy::from_env().budget {
                Some(budget) => ((budget / BYTES_PER_UNIT) as u32).clamp(1, 32),
                None => 8,
            },
        };
        AdmissionConfig {
            capacity,
            queue_cap: (capacity * 2).max(4),
        }
    }
}

struct State {
    /// Units currently admitted (all classes).
    inflight: u32,
    /// Units currently admitted to expensive work.
    expensive_inflight: u32,
    /// Requests waiting, per cost class index.
    queued: [u32; 2],
    /// Set by [`Admission::begin_drain`]: shed all new work.
    draining: bool,
}

/// The admission controller. One per server; shared by every connection
/// handler.
pub struct Admission {
    /// Capacity in units. Atomic so chaos tests (and operators) can
    /// change it mid-traffic; waiters re-read it on every wakeup.
    capacity: AtomicU32,
    queue_cap: u32,
    state: Mutex<State>,
    cv: Condvar,
}

/// RAII admission grant: units are released (and waiters woken) on drop,
/// however the job ends — including a panic unwinding through the
/// handler.
#[derive(Debug)]
pub struct Ticket<'a> {
    admission: &'a Admission,
    units: u32,
    expensive: bool,
}

impl Admission {
    /// Creates a controller with the given limits.
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            capacity: AtomicU32::new(config.capacity),
            queue_cap: config.queue_cap.max(1),
            state: Mutex::new(State {
                inflight: 0,
                expensive_inflight: 0,
                queued: [0, 0],
                draining: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Current capacity in units.
    pub fn capacity(&self) -> u32 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Changes the capacity mid-traffic. Queued waiters re-evaluate
    /// immediately: raising it admits them, dropping it to zero sheds
    /// them with a retryable rejection.
    pub fn set_capacity(&self, units: u32) {
        self.capacity.store(units, Ordering::Relaxed);
        let _g = self.state.lock();
        self.cv.notify_all();
    }

    /// Units currently admitted.
    pub fn inflight(&self) -> u32 {
        self.state.lock().inflight
    }

    /// Starts draining: every subsequent acquire is shed (non-retryable)
    /// and queued waiters are woken to be shed.
    pub fn begin_drain(&self) {
        let mut state = self.state.lock();
        state.draining = true;
        self.cv.notify_all();
    }

    /// Blocks until every admitted job has released its ticket.
    pub fn wait_drained(&self) {
        let mut state = self.state.lock();
        while state.inflight > 0 {
            self.cv.wait(&mut state);
        }
    }

    /// Units a job of `class` occupies under capacity `cap`.
    ///
    /// Expensive jobs are clamped so that at least one unit always
    /// remains reachable by cheap work (the no-head-of-line-blocking
    /// invariant) while staying admissible even at tiny capacities.
    fn units_for(class: CostClass, cap: u32) -> (u32, u32) {
        let reserve = u32::from(cap >= 2);
        match class {
            CostClass::Cheap => (1, reserve),
            CostClass::Expensive => {
                (EXPENSIVE_UNITS.min(cap.saturating_sub(reserve)).max(1), reserve)
            }
        }
    }

    /// Admits the request or sheds it, waiting (bounded by `deadline`
    /// and the queue cap) for units to free.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Rejected`] when shed — retryable for budget-class
    /// conditions (zero capacity, queue overflow, `svc.admit` injection),
    /// non-retryable when draining; [`AdmitError::DeadlineExpired`] when
    /// the deadline passed while queued.
    pub fn acquire(
        &self,
        class: CostClass,
        deadline: Option<Instant>,
    ) -> Result<Ticket<'_>, AdmitError> {
        if substrate::fault::point("svc.admit") {
            return Err(AdmitError::Rejected {
                reason: "injected fault: svc.admit (transient admission rejection)".into(),
                retryable: true,
            });
        }
        let mut state = self.state.lock();
        let mut queued = false;
        // Ensure the queue count is released on every exit path.
        let result = loop {
            if state.draining {
                break Err(AdmitError::Rejected {
                    reason: "server is draining".into(),
                    retryable: false,
                });
            }
            let cap = self.capacity.load(Ordering::Relaxed);
            if cap == 0 {
                break Err(AdmitError::Rejected {
                    reason: "admission capacity is zero".into(),
                    retryable: true,
                });
            }
            let (units, reserve) = Self::units_for(class, cap);
            let admissible = state.inflight + units <= cap
                && (class == CostClass::Cheap
                    || state.expensive_inflight + units <= cap - reserve);
            if admissible {
                state.inflight += units;
                if class == CostClass::Expensive {
                    state.expensive_inflight += units;
                }
                break Ok(Ticket {
                    admission: self,
                    units,
                    expensive: class == CostClass::Expensive,
                });
            }
            if !queued {
                if state.queued[class.index()] >= self.queue_cap {
                    break Err(AdmitError::Rejected {
                        reason: format!(
                            "{} queue is full ({} waiting)",
                            class.name(),
                            self.queue_cap
                        ),
                        retryable: true,
                    });
                }
                state.queued[class.index()] += 1;
                queued = true;
            }
            match deadline {
                None => self.cv.wait(&mut state),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Err(AdmitError::DeadlineExpired);
                    }
                    self.cv.wait_timeout(&mut state, d - now);
                }
            }
        };
        if queued {
            state.queued[class.index()] -= 1;
        }
        result
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut state = self.admission.state.lock();
        state.inflight -= self.units;
        if self.expensive {
            state.expensive_inflight -= self.units;
        }
        self.admission.cv.notify_all();
    }
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("capacity", &self.capacity())
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn controller(capacity: u32, queue_cap: u32) -> Admission {
        Admission::new(AdmissionConfig {
            capacity,
            queue_cap,
        })
    }

    #[test]
    fn cheap_admits_up_to_capacity_then_queues_then_sheds() {
        let a = controller(2, 1);
        let t1 = a.acquire(CostClass::Cheap, None).unwrap();
        let t2 = a.acquire(CostClass::Cheap, None).unwrap();
        // Third request with an already-passed deadline: queued, expires.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            a.acquire(CostClass::Cheap, Some(past)),
            Err(AdmitError::DeadlineExpired)
        ));
        drop(t1);
        drop(t2);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn expensive_never_occupies_the_last_unit() {
        let a = controller(4, 4);
        let _e = a.acquire(CostClass::Expensive, None).unwrap();
        // Expensive took min(4, 4-1) = 3 units; a cheap slot remains.
        let _c = a.acquire(CostClass::Cheap, None).unwrap();
        // A second expensive cannot fit, even with a generous deadline —
        // use an expired one to observe "queued, not admitted".
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            a.acquire(CostClass::Expensive, Some(past)),
            Err(AdmitError::DeadlineExpired)
        ));
    }

    #[test]
    fn capacity_one_still_admits_expensive_work() {
        let a = controller(1, 4);
        let t = a.acquire(CostClass::Expensive, None).unwrap();
        drop(t);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn zero_capacity_sheds_with_retryable_rejection() {
        let a = controller(0, 4);
        match a.acquire(CostClass::Cheap, None) {
            Err(AdmitError::Rejected { retryable, .. }) => assert!(retryable),
            other => panic!("expected rejection, got {other:?}"),
        };
    }

    #[test]
    fn queue_overflow_sheds_instead_of_waiting() {
        let a = std::sync::Arc::new(controller(1, 1));
        let holder = a.acquire(CostClass::Cheap, None).unwrap();
        // One waiter occupies the queue slot on a helper thread.
        let a2 = std::sync::Arc::clone(&a);
        let waiter = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            a2.acquire(CostClass::Cheap, Some(deadline)).map(|_| ())
        });
        // Give the waiter time to enqueue, then overflow the queue.
        std::thread::sleep(Duration::from_millis(50));
        match a.acquire(CostClass::Cheap, Some(Instant::now() + Duration::from_secs(5))) {
            Err(AdmitError::Rejected { retryable, reason }) => {
                assert!(retryable, "queue overflow must be retryable: {reason}");
            }
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        drop(holder);
        waiter.join().unwrap().expect("queued waiter admitted");
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn draining_sheds_new_work_non_retryably() {
        let a = controller(4, 4);
        a.begin_drain();
        match a.acquire(CostClass::Cheap, None) {
            Err(AdmitError::Rejected { retryable, .. }) => assert!(!retryable),
            other => panic!("expected drain rejection, got {other:?}"),
        };
        a.wait_drained();
    }

    #[test]
    fn capacity_drop_to_zero_sheds_queued_waiters() {
        let a = std::sync::Arc::new(controller(1, 4));
        let holder = a.acquire(CostClass::Cheap, None).unwrap();
        let a2 = std::sync::Arc::clone(&a);
        let waiter = std::thread::spawn(move || {
            a2.acquire(CostClass::Cheap, Some(Instant::now() + Duration::from_secs(10)))
                .map(|_| ())
        });
        std::thread::sleep(Duration::from_millis(50));
        a.set_capacity(0);
        match waiter.join().unwrap() {
            Err(AdmitError::Rejected { retryable, .. }) => assert!(retryable),
            other => panic!("expected shed waiter, got {other:?}"),
        }
        // Restoring capacity admits again; the held ticket still releases.
        a.set_capacity(1);
        drop(holder);
        let t = a.acquire(CostClass::Cheap, None).unwrap();
        drop(t);
    }

    #[test]
    fn config_from_env_prefers_explicit_inflight() {
        // No env manipulation here (tests run in parallel); just check
        // the derivation arithmetic via the public constructor.
        let c = AdmissionConfig {
            capacity: 6,
            queue_cap: 12,
        };
        let a = Admission::new(c);
        assert_eq!(a.capacity(), 6);
    }
}
