//! Values that fit in one atomic 64-bit word.
//!
//! Lock-free structures that publish a value with a single atomic store
//! (the task map's slots, for instance) store it as a `u64`. [`Word`] is
//! the encoding: integers and `bool` convert directly, and handle types
//! in other crates (the descriptor arena's `ArenaRef`) implement it for
//! themselves.

/// A value that can be stored inline in one atomic 64-bit word.
pub trait Word: Copy {
    /// Encode `self` as a word.
    fn to_word(self) -> u64;

    /// Decode a word produced by [`Word::to_word`].
    ///
    /// # Safety
    /// `w` must be the result of `to_word` on a value of this type;
    /// decoding then yields that same value.
    unsafe fn from_word(w: u64) -> Self;
}

macro_rules! int_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline]
            fn to_word(self) -> u64 {
                self as u64
            }
            // SAFETY: every bit pattern of the low bits is a valid integer;
            // the cast only truncates the zero/sign extension of `to_word`.
            #[inline]
            unsafe fn from_word(w: u64) -> Self {
                w as $t
            }
        }
    )*};
}
int_word!(u8, u32, u64, usize, i32, i64);

impl Word for bool {
    #[inline]
    fn to_word(self) -> u64 {
        self as u64
    }
    // SAFETY: the comparison builds a valid `bool` from any word.
    #[inline]
    unsafe fn from_word(w: u64) -> Self {
        w != 0
    }
}

#[cfg(test)]
mod tests {
    use super::Word;

    fn round_trip<T: Word + PartialEq + std::fmt::Debug>(v: T) {
        // SAFETY: the word comes from `to_word` of a value of type `T`.
        assert_eq!(unsafe { T::from_word(v.to_word()) }, v);
    }

    #[test]
    fn integers_and_bools_round_trip() {
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(-7i32);
        round_trip(200u8);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
    }
}
