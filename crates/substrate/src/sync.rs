//! Non-poisoning synchronization primitives over `std::sync`.
//!
//! The API mirrors the subset of `parking_lot` the workspace used:
//! [`Mutex::lock`] returns a guard directly (no `Result`), a [`Condvar`]
//! waits on a `&mut` guard without consuming it, and both constructors are
//! `const` so the primitives can back `static` registries.
//!
//! Poisoning is deliberately ignored: the runtime already converts operator
//! panics into ordinary unwinds on the calling thread (see
//! `galois_rt::pool`), so a poisoned std lock only means "some thread
//! panicked while holding the guard", and every use-site here either holds
//! the lock for a few instructions or protects state that is re-validated
//! after reacquisition.

/// A mutual-exclusion lock whose [`lock`](Mutex::lock) never fails.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take the std guard out
    // (std's wait consumes and returns it); it is `Some` at all other times.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates the lock (usable in `static` initializers).
    #[inline]
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard taken during wait")
    }
}

/// A condition variable paired with [`Mutex`].
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates the condition variable (usable in `static` initializers).
    #[inline]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and blocks until notified; the
    /// lock is reacquired before returning. Spurious wakeups are possible,
    /// so callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()));
    }

    /// Like [`Condvar::wait`] but gives up after `timeout`.
    ///
    /// Returns `true` if the wait timed out (the lock is reacquired either
    /// way). Spurious wakeups are possible, so callers loop on their
    /// predicate and recompute the remaining timeout.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> bool {
        let inner = guard.inner.take().expect("guard taken during wait");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => e.into_inner(),
        };
        guard.inner = Some(inner);
        result.timed_out()
    }

    /// Wakes one waiting thread.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// A readers-writer lock whose acquisition methods never fail.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates the lock (usable in `static` initializers).
    #[inline]
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[inline]
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    #[inline]
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(());
        let _g = m.lock();
        assert!(m.try_lock().is_none());
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std lock");
        })
        .join();
        // A parking_lot-style lock must keep working afterwards.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    fn static_init_is_const() {
        static M: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        static CV: Condvar = Condvar::new();
        M.lock().push(1);
        CV.notify_one();
        assert_eq!(M.lock().len(), 1);
    }
}
