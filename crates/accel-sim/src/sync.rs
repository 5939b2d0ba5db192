//! The workspace's one lock type: a mutex that does not poison.
//!
//! A panicking tool callback is caught at the dispatch boundary and the
//! tool quarantined, and a panicking lane is salvaged — both with a shard
//! lock held somewhere up the stack. `std::sync::Mutex` would refuse that
//! lock to everyone afterwards; every structure guarded here is valid at
//! every step of an update, so [`Mutex::lock`] recovers the guard instead
//! and the shard stays usable.

/// Mutual exclusion over `std::sync::Mutex` with poisoning recovered.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value it guarded.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires the lock if nobody holds it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_the_lock_leaves_it_usable() {
        let m = Mutex::new(vec![1]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = m.lock();
            guard.push(2);
            panic!("tool code");
        }));
        assert!(unwound.is_err());
        m.lock().push(3);
        assert_eq!(*m.try_lock().expect("free and recovered"), vec![1, 2, 3]);
        let held = m.lock();
        assert!(m.try_lock().is_none(), "held: would block");
        drop(held);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }
}
