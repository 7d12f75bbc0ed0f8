//! The x86-64 SHA-extensions kernel — the one module of the workspace that
//! contains `unsafe`.
//!
//! The SHA instructions keep the working variables in two registers laid
//! out `ABEF` and `CDGH` (high lane to low), do two rounds per
//! `sha256rnds2`, and derive four schedule words per `sha256msg1` /
//! `sha256msg2` pair, so one block is 32 round instructions instead of the
//! scalar kernel's 64 × ~20 ALU operations.

use std::arch::x86_64::*;

use super::K;

/// Fold every 64-byte block of `blocks` into `state` if this CPU has the
/// SHA extensions; returns `false`, having done nothing, if it does not.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the check above saw `sha`, `ssse3` and `sse4.1` on the running
    // CPU, and `sse2` is part of the x86-64 baseline — every feature
    // `compress_ni` is compiled with.
    unsafe { compress_ni(state, blocks) };
    true
}

/// # Safety
///
/// The running CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
/// Memory accesses need nothing from the caller: every load and store is
/// unaligned and lies inside `state`, `K`, or a 64-byte chunk of `blocks`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_ni(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Big-endian message words → little-endian lanes.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // The sixteen most recent schedule words, four per vector.
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p), swap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap),
        ];
        for i in 0..16 {
            if i >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at once.
                let (w16, w12, w8, w4) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                w[i % 4] = _mm_sha256msg2_epu32(partial, w4);
            }
            let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}
