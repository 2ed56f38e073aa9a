//! `ft-sync` — the cfg(loom)-switchable atomics facade.
//!
//! Every *runtime* crate (`ft-steal`, `ft-cmap`, `nabbit-ft`, `ft-det`)
//! imports atomics from `ft_sync::atomic` instead of `std::sync::atomic`.
//! Under a normal build the module is a zero-cost re-export of the std
//! atomics; under `RUSTFLAGS="--cfg loom"` it re-exports the loom shim's
//! schedule-perturbing atomics instead. The point is that the loom model
//! tests then exercise the *shipped* code paths — before this facade
//! existed, only the files that hand-rolled a `#[cfg(loom)]` import pair
//! were visible to the models, and every other atomic silently escaped
//! model checking.
//!
//! The `ft-lint` rule **L3** (see `docs/LINTS.md`) mechanically enforces
//! that no runtime crate imports `std::sync::atomic` directly, so new
//! lock-free code cannot opt out of model coverage by accident. This crate
//! is the single sanctioned exception: the `cfg(not(loom))` arm below is
//! where the std atomics enter the dependency graph.
//!
//! The crate also defines [`Word`], the encoding of values that a
//! lock-free structure stores inline in one atomic 64-bit word.
//!
//! Usage is identical to std:
//!
//! ```
//! use ft_sync::atomic::{AtomicU64, Ordering};
//! let x = AtomicU64::new(1);
//! assert_eq!(x.fetch_add(1, Ordering::Relaxed), 1);
//! ```

#![warn(missing_docs)]

mod word;
pub use word::Word;

#[cfg(loom)]
pub use loom::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::atomic;

#[cfg(test)]
mod tests {
    use super::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

    // Statics must work in both arms: the loom shim keeps `const fn new`.
    static COUNTER: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn facade_exposes_std_compatible_atomics() {
        COUNTER.store(7, Ordering::Relaxed);
        assert_eq!(COUNTER.load(Ordering::Relaxed), 7);

        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));

        let s = AtomicU8::new(3);
        assert_eq!(s.swap(4, Ordering::AcqRel), 3);

        let u = AtomicUsize::new(0);
        assert!(u
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok());
        fence(Ordering::SeqCst);
        assert_eq!(u.load(Ordering::SeqCst), 1);
    }
}
