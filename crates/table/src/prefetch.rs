//! Software prefetch — the only place in the workspace allowed to use
//! `unsafe`, and only for the cfg-gated prefetch intrinsic.
//!
//! The insert pipeline hashes a window of keys up front and issues a
//! prefetch for every candidate bucket word before any fingerprint is
//! placed, so the bucket loads of key *i+W* overlap the hashing of keys
//! *i+W+1..* instead of serialising hash → miss → hash → miss. The
//! function is public so that `vcf-core`'s `ConcurrentVcf` can warm its
//! per-bucket seqlock words the same way. A prefetch
//! is purely a performance hint: it reads no data, faults on nothing
//! (invalid addresses are dropped by the hardware), and has no observable
//! effect on program state — which is why the one-line intrinsic wrapper
//! below is sound despite being `unsafe` to call.

/// Hints the memory system to pull the cache line containing `*ptr`
/// toward the L1 data cache.
///
/// On `x86_64` this is `PREFETCHT0` via [`_mm_prefetch`]; on other
/// architectures it is a no-op (stable Rust exposes no portable prefetch
/// intrinsic — notably `aarch64`'s `prfm` is nightly-only), which keeps
/// the insert pipeline correct everywhere and fast where it matters.
///
/// [`_mm_prefetch`]: core::arch::x86_64::_mm_prefetch
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: PREFETCHT0 is architecturally defined to be a hint with no
    // effect on architectural state; it cannot fault even on invalid
    // addresses. The pointer is never dereferenced.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>()) }
}

/// No-op fallback for targets without a stable prefetch intrinsic.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        let data = [1u64, 2, 3];
        prefetch_read(data.as_ptr());
        prefetch_read(data.as_ptr().wrapping_add(2));
        assert_eq!(data, [1, 2, 3]);
    }
}
