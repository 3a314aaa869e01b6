//! Portable kernel tier: four lanes interleaved in `[u64; 4]` arrays plus
//! SWAR-on-u64 min/max scans.  No intrinsics, no unsafe — the straight-line
//! per-lane loops expose cross-lane ILP that the autovectoriser maps onto
//! baseline SSE2, and the scans pack four `u16` (two `u32`) fields per word
//! with guard-bit partitioned compares.  It drives the complete-pair and
//! edge families only; both vertex families (generic and regular) take
//! the scalar drive on this tier.  The toward-step is shared with the
//! AVX2 tier.  Bit-exactness contract: see the module docs in `super`.

use crate::rng::FastRng;

/// Four xoshiro256++ generators interleaved: `s[w][j]` is state word `w`
/// of lane `j`.  A load/store round trip is the identity, and stepping
/// lane `j` here is exactly [`FastRng::next_word`] on that lane.
pub(super) struct Rng4 {
    s: [[u64; 4]; 4],
}

impl Rng4 {
    #[inline(always)]
    pub(super) fn load(rngs: &[FastRng; 4]) -> Rng4 {
        let mut s = [[0u64; 4]; 4];
        for (j, rng) in rngs.iter().enumerate() {
            let st = rng.state();
            for (w, row) in s.iter_mut().enumerate() {
                row[j] = st[w];
            }
        }
        Rng4 { s }
    }

    #[inline(always)]
    pub(super) fn store(&self, rngs: &mut [FastRng; 4]) {
        for (j, rng) in rngs.iter_mut().enumerate() {
            rng.set_state([self.s[0][j], self.s[1][j], self.s[2][j], self.s[3][j]]);
        }
    }

    /// One xoshiro256++ step on lane `j` alone.
    #[inline(always)]
    fn step_lane(&mut self, j: usize) -> u64 {
        let s = &mut self.s;
        let result = s[0][j]
            .wrapping_add(s[3][j])
            .rotate_left(23)
            .wrapping_add(s[0][j]);
        let t = s[1][j] << 17;
        s[2][j] ^= s[0][j];
        s[3][j] ^= s[1][j];
        s[1][j] ^= s[2][j];
        s[0][j] ^= s[3][j];
        s[2][j] ^= t;
        s[3][j] = s[3][j].rotate_left(45);
        result
    }

    /// One step on all four lanes (the common, unmasked first draw).
    #[inline(always)]
    pub(super) fn next_words(&mut self) -> [u64; 4] {
        core::array::from_fn(|j| self.step_lane(j))
    }

    /// Redraws **only** the lanes whose previous draw rejected, leaving
    /// accepted lanes' words and states untouched — this is what keeps
    /// each lane's word stream identical to its scalar replay.
    #[inline(always)]
    pub(super) fn redraw_masked(&mut self, words: &mut [u64; 4], rej: [bool; 4]) {
        for j in 0..4 {
            if rej[j] {
                words[j] = self.step_lane(j);
            }
        }
    }
}

/// The branchless toward-step on one lane column: `v` moves one unit
/// toward `w`'s opinion (sign arithmetic, no data-dependent branch).
#[inline(always)]
pub(super) fn toward(col: &mut [u16], v: usize, w: usize) {
    let xv = col[v];
    let xw = col[w];
    let delta = (xw > xv) as i32 - ((xw < xv) as i32);
    col[v] = (xv as i32 + delta) as u16;
}

/// The two-range draw's ranges and their Lemire rejection thresholds,
/// hoisted: accept ⇔ frac ≥ t (the scalar `bounded_u32_half` computes t
/// lazily but decides the same).
#[derive(Clone, Copy)]
struct PairRanges {
    n: u32,
    r: u32,
    tn: u32,
    tr: u32,
}

impl PairRanges {
    fn new(n: u32, r: u32) -> PairRanges {
        PairRanges {
            n,
            r,
            tn: n.wrapping_neg() % n,
            tr: r.wrapping_neg() % r,
        }
    }
}

/// The two-range draw on four lanes: one word per lane, high half over
/// `n`, low half over `r`; a lane whose either half rejects redraws its
/// whole word, exactly as the scalar pick does.  Returns the raw
/// `(v, s)` per lane.
#[inline(always)]
fn pair_draw(rng4: &mut Rng4, c: PairRanges) -> ([u32; 4], [u32; 4]) {
    let mut words = rng4.next_words();
    let mut v = [0u32; 4];
    let mut s = [0u32; 4];
    loop {
        let mut rej = [false; 4];
        let mut any = false;
        for j in 0..4 {
            let mv = (words[j] >> 32) * c.n as u64;
            let ms = (words[j] & 0xFFFF_FFFF) * c.r as u64;
            let x = ((mv as u32) < c.tn) | ((ms as u32) < c.tr);
            rej[j] = x;
            any |= x;
            v[j] = (mv >> 32) as u32;
            s[j] = (ms >> 32) as u32;
        }
        if !any {
            return (v, s);
        }
        rng4.redraw_masked(&mut words, rej);
    }
}

/// Lockstep drive for [`CompiledSampler::CompletePair`]: the two-range
/// draw over `(n, n − 1)`, then the skip-over-`v` map.
///
/// [`CompiledSampler::CompletePair`]: crate::engine::CompiledSampler
pub(super) fn drive_complete_pair(
    cols: &mut [&mut [u16]; 4],
    rngs: &mut [FastRng; 4],
    n: u32,
    steps: u64,
) {
    let mut rng4 = Rng4::load(rngs);
    let c = PairRanges::new(n, n - 1);
    for _ in 0..steps {
        let (v, w) = pair_draw(&mut rng4, c);
        for j in 0..4 {
            // Skip over v: maps [0, n−1) onto [0, n) \ {v}.
            let w = w[j] + (w[j] >= v[j]) as u32;
            toward(cols[j], v[j] as usize, w as usize);
        }
    }
    rng4.store(rngs);
}

/// One two-range draw per lane (test entry for `pair_draw`).
pub(super) fn pair_draw_x4(rngs: &mut [FastRng; 4], n: u32, r: u32) -> [(u32, u32); 4] {
    let mut rng4 = Rng4::load(rngs);
    let (v, s) = pair_draw(&mut rng4, PairRanges::new(n, r));
    rng4.store(rngs);
    core::array::from_fn(|j| (v[j], s[j]))
}

/// Lockstep drive for [`CompiledSampler::Edge`]: one 64-bit Lemire draw
/// `j ∈ [0, 2m)` per step per lane addresses the directed edge
/// `(endpoints[j], endpoints[j ^ 1])`.
///
/// [`CompiledSampler::Edge`]: crate::engine::CompiledSampler
pub(super) fn drive_edge(
    cols: &mut [&mut [u16]; 4],
    rngs: &mut [FastRng; 4],
    endpoints: &[u32],
    two_m: u64,
    steps: u64,
) {
    let mut rng4 = Rng4::load(rngs);
    let t = two_m.wrapping_neg() % two_m;
    for _ in 0..steps {
        let mut words = rng4.next_words();
        let mut idx = [0usize; 4];
        loop {
            let mut rej = [false; 4];
            let mut any = false;
            for j in 0..4 {
                let m = (words[j] as u128) * (two_m as u128);
                let r = (m as u64) < t;
                rej[j] = r;
                any |= r;
                idx[j] = (m >> 64) as usize;
            }
            if !any {
                break;
            }
            rng4.redraw_masked(&mut words, rej);
        }
        for j in 0..4 {
            let a = endpoints[idx[j]] as usize;
            let b = endpoints[idx[j] ^ 1] as usize;
            toward(cols[j], a, b);
        }
    }
    rng4.store(rngs);
}

/// One masked 64-bit Lemire draw per lane (the edge drive's sampler,
/// detached from the toward-step so the acceptance tests can call it).
pub(super) fn bounded_u64_x4(rngs: &mut [FastRng; 4], range: u64) -> [u64; 4] {
    let mut rng4 = Rng4::load(rngs);
    let t = range.wrapping_neg() % range;
    let mut words = rng4.next_words();
    let mut out = [0u64; 4];
    loop {
        let mut rej = [false; 4];
        let mut any = false;
        for j in 0..4 {
            let m = (words[j] as u128) * (range as u128);
            let r = (m as u64) < t;
            rej[j] = r;
            any |= r;
            out[j] = (m >> 64) as u64;
        }
        if !any {
            break;
        }
        rng4.redraw_masked(&mut words, rej);
    }
    rng4.store(rngs);
    out
}

/// Guard bits (per-field MSBs) for four packed `u16` fields.
const H16: u64 = 0x8000_8000_8000_8000;
/// Guard bits for two packed `u32` fields.
const H32: u64 = 0x8000_0000_8000_0000;

/// Full-field mask of `x_i < y_i` (unsigned, 4 × u16 fields per word).
///
/// Guard-bit partitioned compare: `d = (x | H) − (y & !H)` subtracts the
/// low 15 bits of each field under a planted guard bit, so no borrow
/// crosses a field boundary and bit 15 of each field of `d` reads
/// `x_lo ≥ y_lo`.  The full 16-bit unsigned order is then
/// `x < y ⇔ (¬x ∧ y) ∨ (¬(x ⊕ y) ∧ ¬d)` at the MSB, spread to the whole
/// field by the `0xFFFF` multiply (one set bit per field, no carries).
#[inline(always)]
fn lt_u16x4(x: u64, y: u64) -> u64 {
    let d = (x | H16).wrapping_sub(y & !H16);
    let lt = ((!x & y) | (!(x ^ y) & !d)) & H16;
    (lt >> 15).wrapping_mul(0xFFFF)
}

/// Full-field mask of `x_i < y_i` (unsigned, 2 × u32 fields per word);
/// same construction as [`lt_u16x4`] with 31-bit low parts.
#[inline(always)]
fn lt_u32x2(x: u64, y: u64) -> u64 {
    let d = (x | H32).wrapping_sub(y & !H32);
    let lt = ((!x & y) | (!(x ^ y) & !d)) & H32;
    (lt >> 31).wrapping_mul(0xFFFF_FFFF)
}

/// SWAR min/max over a `u16` slice: four fields per accumulator word,
/// reduced per field at the end; the tail shorter than one word folds
/// scalar.  Returns `(u16::MAX, 0)` for an empty slice, like the scalar
/// fold.
pub(super) fn min_max_u16(xs: &[u16]) -> (u16, u16) {
    let mut chunks = xs.chunks_exact(4);
    let mut amn = !0u64;
    let mut amx = 0u64;
    for c in chunks.by_ref() {
        let w = (c[0] as u64) | (c[1] as u64) << 16 | (c[2] as u64) << 32 | (c[3] as u64) << 48;
        let m = lt_u16x4(w, amn);
        amn = (w & m) | (amn & !m);
        let m = lt_u16x4(amx, w);
        amx = (w & m) | (amx & !m);
    }
    let (mut mn, mut mx) = (u16::MAX, 0u16);
    for f in 0..4 {
        mn = mn.min((amn >> (16 * f)) as u16);
        mx = mx.max((amx >> (16 * f)) as u16);
    }
    for &x in chunks.remainder() {
        mn = mn.min(x);
        mx = mx.max(x);
    }
    (mn, mx)
}

/// SWAR min/max over a `u32` slice (two fields per word); the `u32` twin
/// of [`min_max_u16`].
pub(super) fn min_max_u32(xs: &[u32]) -> (u32, u32) {
    let mut chunks = xs.chunks_exact(2);
    let mut amn = !0u64;
    let mut amx = 0u64;
    for c in chunks.by_ref() {
        let w = (c[0] as u64) | (c[1] as u64) << 32;
        let m = lt_u32x2(w, amn);
        amn = (w & m) | (amn & !m);
        let m = lt_u32x2(amx, w);
        amx = (w & m) | (amx & !m);
    }
    let mut mn = (amn as u32).min((amn >> 32) as u32);
    let mut mx = (amx as u32).max((amx >> 32) as u32);
    for &x in chunks.remainder() {
        mn = mn.min(x);
        mx = mx.max(x);
    }
    (mn, mx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rng4_round_trips_and_steps_like_scalar() {
        let mut lanes: [FastRng; 4] = std::array::from_fn(|j| FastRng::seed_from_u64(j as u64));
        let mut scalar = lanes;
        let mut rng4 = Rng4::load(&lanes);
        for round in 0..100 {
            let words = rng4.next_words();
            for (j, rng) in scalar.iter_mut().enumerate() {
                assert_eq!(words[j], rng.next_word(), "round {round} lane {j}");
            }
        }
        rng4.store(&mut lanes);
        assert_eq!(lanes, scalar);
    }

    #[test]
    fn masked_redraw_advances_only_rejecting_lanes() {
        let mut lanes: [FastRng; 4] =
            std::array::from_fn(|j| FastRng::seed_from_u64(10 + j as u64));
        let mut scalar = lanes;
        let mut rng4 = Rng4::load(&lanes);
        let mut words = rng4.next_words();
        for (j, rng) in scalar.iter_mut().enumerate() {
            assert_eq!(words[j], rng.next_word());
        }
        let kept = [words[0], words[2]];
        rng4.redraw_masked(&mut words, [false, true, false, true]);
        assert_eq!(words[0], kept[0]);
        assert_eq!(words[2], kept[1]);
        assert_eq!(words[1], scalar[1].next_word());
        assert_eq!(words[3], scalar[3].next_word());
        rng4.store(&mut lanes);
        assert_eq!(lanes, scalar);
    }

    #[test]
    fn packed_compares_are_exact() {
        let mut rng = FastRng::seed_from_u64(0xC0FE);
        for _ in 0..20_000 {
            let x = rng.next_word();
            let y = rng.next_word();
            let m16 = lt_u16x4(x, y);
            for f in 0..4 {
                let xf = (x >> (16 * f)) as u16;
                let yf = (y >> (16 * f)) as u16;
                let got = (m16 >> (16 * f)) as u16;
                assert_eq!(got, if xf < yf { 0xFFFF } else { 0 }, "{xf:#x} vs {yf:#x}");
            }
            let m32 = lt_u32x2(x, y);
            for f in 0..2 {
                let xf = (x >> (32 * f)) as u32;
                let yf = (y >> (32 * f)) as u32;
                let got = (m32 >> (32 * f)) as u32;
                assert_eq!(
                    got,
                    if xf < yf { u32::MAX } else { 0 },
                    "{xf:#x} vs {yf:#x}"
                );
            }
        }
    }
}
