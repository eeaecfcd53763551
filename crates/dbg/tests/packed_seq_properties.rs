//! Randomized round-trip properties of [`dbg::PackedSeq`] on top of the bulk
//! pack/unpack kernels, including non-ACGT exception handling, and the
//! packing's agreement with the kernel's per-base scalar twin.

use dbg::PackedSeq;
use kmers::kernels;
use rand::{Rng, SeedableRng};

type StdRng = rand::rngs::StdRng;

/// Bases with lower-case, `N` runs and junk bytes mixed in.
fn noisy_bases(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut seq: Vec<u8> = (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
        .collect();
    for b in seq.iter_mut() {
        match rng.gen_range(0..20usize) {
            0 => *b = b'N',
            1 => *b = b.to_ascii_lowercase(),
            2 => *b = b'x',
            _ => {}
        }
    }
    if len >= 8 {
        let at = rng.gen_range(0..len - 4);
        seq[at..at + 4].fill(b'N');
    }
    seq
}

/// What lossless packing preserves: exception bytes verbatim, valid bases
/// case-folded to upper case (the 2-bit codes have no case).
fn normalized(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&b| {
            if matches!(b.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T') {
                b.to_ascii_uppercase()
            } else {
                b
            }
        })
        .collect()
}

#[test]
fn packed_seq_roundtrips_with_exceptions() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for len in [0usize, 1, 3, 7, 8, 9, 40, 63, 64, 65, 500] {
        for _ in 0..10 {
            let seq = noisy_bases(&mut rng, len);
            let ps = PackedSeq::from_bytes(&seq);
            assert_eq!(ps.unpack(), normalized(&seq), "len={len}");
        }
    }
}

#[test]
fn packing_matches_the_scalar_twin() {
    let mut rng = StdRng::seed_from_u64(0x0DDC0DE);
    for len in [5usize, 33, 128, 301] {
        let seq = noisy_bases(&mut rng, len);
        let mut data = vec![0u8; len.div_ceil(4)];
        let mut exceptions = Vec::new();
        kernels::pack_ascii_scalar(&seq, &mut data, |i, b| exceptions.push((i as u32, b)));
        let packed = PackedSeq::from_bytes(&seq);
        assert_eq!(
            packed.to_parts(),
            (len, &data[..], &exceptions[..]),
            "len={len}"
        );
    }
}
