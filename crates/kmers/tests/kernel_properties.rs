//! Randomized scalar-vs-kernel equivalence properties.
//!
//! Every compute kernel keeps its per-base scalar twin in tree; these tests
//! drive both sides with the same inputs and require bit-for-bit agreement —
//! at every word-boundary k value in `BOUNDARY_KS` (32/64/96 and their
//! neighbours, where the packed arithmetic is easiest to get wrong) and at
//! random k, with non-ACGT exceptions sprinkled in. Kernels are pure
//! functions, so twin equality on every input is what makes the pipeline's
//! results independent of the instruction set the CPU offers.

use kmers::kernels;
use kmers::{
    encode_supermer, expand_supermer, kmers_with_exts, supermers, Kmer, SupermerBlobIter, MAX_K,
};
use rand::{Rng, SeedableRng};

type StdRng = rand::rngs::StdRng;

fn random_bases(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
        .collect()
}

/// Bases with lower-case, `N` runs and junk bytes mixed in.
fn noisy_bases(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut seq = random_bases(rng, len);
    for b in seq.iter_mut() {
        match rng.gen_range(0..20usize) {
            0 => *b = b'N',
            1 => *b = b.to_ascii_lowercase(),
            2 => *b = b'x',
            _ => {}
        }
    }
    // An explicit N run exercises runs of exceptions, not just point noise.
    if len >= 8 {
        let at = rng.gen_range(0..len - 4);
        seq[at..at + 4].fill(b'N');
    }
    seq
}

/// k values that cross every word boundary of the `[u64; 4]` representation.
const BOUNDARY_KS: &[usize] = &[1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 126, 127];

#[test]
fn revcomp_and_canonical_match_scalar_oracle_across_k() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for &k in BOUNDARY_KS {
        for _ in 0..50 {
            let seq = random_bases(&mut rng, k);
            let km = Kmer::from_bytes(&seq).expect("valid bases");
            // Oracle: string-level reverse complement re-encoded.
            let rc_str = seqio::alphabet::revcomp(&seq);
            let rc = km.revcomp();
            assert_eq!(rc.to_bytes(), rc_str, "revcomp k={k}");
            assert_eq!(rc.revcomp(), km, "involution k={k}");
            // Canonical: the early-exit path must pick min(km, rc) exactly,
            // flagging the reverse complement only when it strictly wins.
            let (canon, was_rc) = km.canonical();
            assert_eq!(canon, km.min(rc), "canonical k={k}");
            assert_eq!(was_rc, rc < km, "flag k={k}");
            assert_eq!(km.is_canonical(), !was_rc, "is_canonical k={k}");
            assert!(canon.is_canonical(), "canonical fixpoint k={k}");
        }
    }
}

#[test]
fn kmer_byte_roundtrip_and_affixes_across_k() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for &k in BOUNDARY_KS {
        for _ in 0..20 {
            let seq = random_bases(&mut rng, k);
            let km = Kmer::from_bytes(&seq).expect("valid bases");
            assert_eq!(km.to_bytes(), seq, "to_bytes k={k}");
            if k > 1 {
                assert_eq!(km.suffix().to_bytes(), seq[1..], "suffix k={k}");
                assert_eq!(km.prefix().to_bytes(), seq[..k - 1], "prefix k={k}");
            }
        }
    }
    assert!(Kmer::from_bytes(&[b'A'; MAX_K + 1]).is_none());
}

#[test]
fn supermer_codec_is_bit_for_bit_stable_on_noisy_reads() {
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    for _ in 0..20 {
        let len = rng.gen_range(30..400usize);
        let seq = noisy_bases(&mut rng, len);
        let qual: Vec<u8> = (0..len).map(|_| rng.gen_range(5..45u8)).collect();
        for (k, m) in [(21usize, 15usize), (13, 7)] {
            // The wire blob and its expansion must agree with the per-k-mer
            // extraction oracle.
            let mut blob = Vec::new();
            for sm in supermers(&seq, k, m) {
                encode_supermer(&mut blob, &seq, &qual, 20, &sm);
            }
            let mut decoded = Vec::new();
            for rec in SupermerBlobIter::new(&blob) {
                expand_supermer(&rec, k, |obs| decoded.push(obs));
            }
            assert_eq!(decoded, kmers_with_exts(&seq, &qual, k, 20), "k={k}");
        }
    }
}

/// Compares every kernel with its scalar twin on one `k`-base clean sequence
/// and one noisy one, drawing the other operands from `rng`.
fn assert_twins_agree(rng: &mut StdRng, k: usize) {
    let seq = random_bases(rng, k);
    let noisy = noisy_bases(rng, k);

    // encode_words: agreement including the rejection cases.
    assert_eq!(
        kernels::encode_words(&seq),
        kernels::encode_words_scalar(&seq),
        "k={k}"
    );
    assert_eq!(
        kernels::encode_words(&noisy),
        kernels::encode_words_scalar(&noisy),
        "k={k}"
    );

    let words = kernels::encode_words_scalar(&seq).expect("valid bases");
    assert_eq!(
        kernels::revcomp_words(&words, k),
        kernels::revcomp_words_scalar(&words, k),
        "k={k}"
    );

    let other = kernels::encode_words_scalar(&random_bases(rng, k)).expect("valid");
    assert_eq!(
        kernels::lex_cmp_words(&words, &other),
        kernels::lex_cmp_words_scalar(&words, &other, k),
        "k={k}"
    );

    // pack/unpack twins over the noisy sequence.
    let mut data_w = vec![0u8; k.div_ceil(4)];
    let mut data_s = vec![0u8; k.div_ceil(4)];
    let mut exc_w = Vec::new();
    let mut exc_s = Vec::new();
    kernels::pack_ascii(&noisy, &mut data_w, |i, b| exc_w.push((i, b)));
    kernels::pack_ascii_scalar(&noisy, &mut data_s, |i, b| exc_s.push((i, b)));
    assert_eq!(data_w, data_s, "k={k}");
    assert_eq!(exc_w, exc_s, "k={k}");
    let (lo, hi) = {
        let a = rng.gen_range(0..=k);
        let b = rng.gen_range(0..=k);
        (a.min(b), a.max(b))
    };
    let mut out_w = Vec::new();
    let mut out_s = Vec::new();
    kernels::unpack_ascii(&data_w, lo, hi, &mut out_w);
    kernels::unpack_ascii_scalar(&data_s, lo, hi, &mut out_s);
    assert_eq!(out_w, out_s, "k={k} window={lo}..{hi}");
}

#[test]
fn kernel_twins_agree_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..200 {
        let k = rng.gen_range(1..=MAX_K);
        assert_twins_agree(&mut rng, k);
    }
    // The word boundaries every time, not only when the draws hit them.
    for &k in BOUNDARY_KS {
        for _ in 0..20 {
            assert_twins_agree(&mut rng, k);
        }
    }
}
