//! Typed serving errors and poison-tolerant lock helpers.
//!
//! Every serving request API (`try_recommend` / `try_recommend_batch`
//! on [`QueryEngine`](crate::engine::QueryEngine),
//! [`ShardedEngine`](crate::router::ShardedEngine), and
//! [`RecommendService`](crate::service::RecommendService), plus
//! `RecommendService::warm`) returns a [`ServeError`] instead of
//! panicking or hanging.
//!
//! ## Which error means what
//!
//! | variant              | raised by                          | caller's move            |
//! |----------------------|------------------------------------|--------------------------|
//! | `Overloaded`         | admission control (queue watermark)| back off / retry later   |
//! | `DeadlineExceeded`   | worker-side expiry check           | request is stale; re-issue if still wanted |
//! | `ShardFailed`        | scatter after retries, strict policy| retry; page the operator |
//! | `Poisoned`           | a caught panic during scoring      | retry; the service survived |
//! | `InvalidRequest`     | request validation (bad user id)   | fix the request          |

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A typed serving failure. `Clone` because one coalesced worker group
/// fans a single failure out to every caller in the group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed this request: the queue depth was at or
    /// above the configured watermark (or the bounded queue itself was
    /// full). The request was never enqueued and never scored.
    Overloaded {
        /// Queue depth observed at admission.
        depth: usize,
        /// The configured shed watermark.
        watermark: usize,
    },
    /// The request's enqueue-stamped budget ran out before a worker
    /// reached it; it was dropped *before* scoring (scoring work is
    /// never wasted on an answer nobody is waiting for).
    DeadlineExceeded {
        /// The budget the request carried.
        budget: Duration,
    },
    /// One or more shards failed a scatter (after the configured
    /// retries) under the strict policy, or every shard failed under
    /// the degraded policy.
    ShardFailed {
        /// The shards that produced no answer, ascending.
        shards: Vec<usize>,
    },
    /// Scoring panicked and the panic was caught by worker supervision;
    /// the worker — and the service — survived.
    Poisoned {
        /// The panic payload, when it was a string (the common case).
        reason: String,
    },
    /// The request failed validation (e.g. a user id outside the served
    /// universe) and was rejected before any work happened.
    InvalidRequest {
        /// What was wrong with it.
        reason: String,
    },
}

impl ServeError {
    /// A [`ServeError::Poisoned`] from a caught panic payload,
    /// extracting the message when the payload is a string.
    pub(crate) fn poisoned(payload: &(dyn std::any::Any + Send), context: &str) -> Self {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Self::Poisoned {
            reason: format!("{context}: {reason}"),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { depth, watermark } => write!(
                f,
                "overloaded: queue depth {depth} at/above shed watermark {watermark}"
            ),
            Self::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded: {budget:?} budget expired in queue")
            }
            Self::ShardFailed { shards } => {
                write!(f, "shard(s) {shards:?} failed the scatter after retries")
            }
            Self::Poisoned { reason } => write!(f, "scoring panicked (caught): {reason}"),
            Self::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Rejects a request naming a user outside a universe of `n_users`
/// with [`ServeError::InvalidRequest`] (the first such user is named),
/// before any work happens.
pub(crate) fn check_users(users: &[u32], n_users: usize) -> Result<(), ServeError> {
    match users.iter().find(|&&u| u as usize >= n_users) {
        Some(&user) => Err(ServeError::InvalidRequest {
            reason: format!("user {user} out of range ({n_users} users)"),
        }),
        None => Ok(()),
    }
}

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic to every subsequent request.
///
/// Safe here because every serving-path critical section completes its
/// structural mutation before any operation that can panic (scoring,
/// and injected faults, run *outside* these locks), so a poisoned lock
/// only means "a panic happened elsewhere while someone held this" —
/// the guarded data is still valid. Callers that cannot argue that
/// (none today) must not use this helper.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint:allow(no-bare-locks): this is the recover helper itself
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for `RwLock` reads.
pub(crate) fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // lint:allow(no-bare-locks): this is the recover helper itself
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for `RwLock` writes.
pub(crate) fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    // lint:allow(no-bare-locks): this is the recover helper itself
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(ServeError, &str)> = vec![
            (
                ServeError::Overloaded {
                    depth: 9,
                    watermark: 8,
                },
                "overloaded",
            ),
            (
                ServeError::DeadlineExceeded {
                    budget: Duration::from_millis(5),
                },
                "deadline exceeded",
            ),
            (ServeError::ShardFailed { shards: vec![1, 3] }, "shard"),
            (
                ServeError::Poisoned {
                    reason: "boom".into(),
                },
                "panicked",
            ),
            (
                ServeError::InvalidRequest {
                    reason: "user 7 out of range".into(),
                },
                "invalid request",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn poisoned_extracts_string_payloads() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("shard 2 exploded".to_string());
        let err = ServeError::poisoned(payload.as_ref(), "scatter");
        assert_eq!(
            err,
            ServeError::Poisoned {
                reason: "scatter: shard 2 exploded".into()
            }
        );
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42usize);
        let err = ServeError::poisoned(opaque.as_ref(), "scoring");
        assert!(matches!(err, ServeError::Poisoned { reason } if reason.contains("non-string")));
    }

    #[test]
    fn recover_helpers_serve_through_a_poisoned_lock() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first lock");
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "lock really is poisoned");
        assert_eq!(*lock_recover(&m), 7, "data survives the poison");
        let l = std::sync::Arc::new(RwLock::new(3u32));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().expect("first write");
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_recover(&l), 3);
        *write_recover(&l) = 4;
        assert_eq!(*read_recover(&l), 4);
    }
}
