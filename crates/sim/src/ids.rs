//! Identifier newtypes for threads and shared objects.
//!
//! All simulator objects are referred to by small dense indices wrapped in
//! newtypes so that a [`VarId`] can never be confused with a
//! [`MutexId`] at an API boundary (C-NEWTYPE).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the dense index backing this identifier.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a dense index.
            ///
            /// Mostly useful in tests and detector code that re-materializes
            /// identifiers out of recorded traces.
            pub fn from_index(index: usize) -> Self {
                $name(index as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a thread within a [`crate::Program`].
    ThreadId,
    "t"
);
id_newtype!(
    /// Identifies a shared variable.
    VarId,
    "v"
);
id_newtype!(
    /// Identifies a mutex.
    MutexId,
    "m"
);
id_newtype!(
    /// Identifies a condition variable.
    CondId,
    "c"
);
id_newtype!(
    /// Identifies a reader-writer lock.
    RwId,
    "rw"
);
id_newtype!(
    /// Identifies a counting semaphore.
    SemId,
    "s"
);

impl ThreadId {
    /// This thread's bit in a `u64` thread mask.
    #[inline]
    pub(crate) fn bit(self) -> u64 {
        1 << self.0
    }
}

/// The threads of a set kept as a `u64` mask (bit `i` for thread `i`),
/// in thread order.
pub(crate) fn threads_in(mut mask: u64) -> impl Iterator<Item = ThreadId> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros();
        mask &= mask.checked_sub(1)?;
        Some(ThreadId(i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ThreadId(3).to_string(), "t3");
        assert_eq!(VarId(0).to_string(), "v0");
        assert_eq!(MutexId(7).to_string(), "m7");
        assert_eq!(CondId(1).to_string(), "c1");
        assert_eq!(RwId(2).to_string(), "rw2");
        assert_eq!(SemId(9).to_string(), "s9");
    }

    #[test]
    fn index_round_trips() {
        let v = VarId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v, VarId(42));
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(ThreadId(1) < ThreadId(2));
        assert!(VarId(0) < VarId(10));
    }
}
