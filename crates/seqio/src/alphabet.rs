//! The DNA alphabet and 2-bit base encoding.
//!
//! Bases are represented as upper-case ASCII `A`, `C`, `G`, `T`; `N` marks an
//! unknown base (sequencers emit it for low-confidence cycles). The 2-bit
//! encoding (`A=0, C=1, G=2, T=3`) matches the packing used by the `kmers`
//! crate, so `encode_base`/`decode_base` are the single source of truth for
//! that mapping.

/// The four unambiguous DNA bases, in encoding order.
pub const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Returns `true` for one of the four unambiguous upper-case bases.
#[inline]
pub fn is_valid_base(b: u8) -> bool {
    matches!(b, b'A' | b'C' | b'G' | b'T')
}

/// Encodes a base into its 2-bit code. Returns `None` for `N` or any other
/// non-ACGT byte (lower-case input is accepted and normalised).
#[inline]
pub const fn encode_base(b: u8) -> Option<u8> {
    match b {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// Decodes a 2-bit code back into an upper-case ASCII base.
///
/// # Panics
/// Panics if `code > 3`.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    BASES[code as usize]
}

/// Watson–Crick complement of a single base. `N` maps to `N`; anything else is
/// passed through unchanged so that callers can complement mixed-case data.
#[inline]
pub fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        b'T' => b'A',
        b'a' => b't',
        b'c' => b'g',
        b'g' => b'c',
        b't' => b'a',
        other => other,
    }
}

/// Returns the reverse complement of a sequence as a new vector.
pub fn revcomp(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

/// Reverse complements a sequence in place.
pub fn revcomp_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement(*b);
    }
}

/// Normalises a sequence to upper-case, mapping every non-ACGT byte to `N`.
pub fn normalize(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&b| match b {
            b'A' | b'a' => b'A',
            b'C' | b'c' => b'C',
            b'G' | b'g' => b'G',
            b'T' | b't' => b'T',
            _ => b'N',
        })
        .collect()
}

/// GC content of a sequence in `[0, 1]`; ambiguous bases are ignored in the
/// denominator. Returns 0 for sequences with no unambiguous bases.
pub fn gc_content(seq: &[u8]) -> f64 {
    let mut gc = 0usize;
    let mut total = 0usize;
    for &b in seq {
        match b {
            b'G' | b'C' | b'g' | b'c' => {
                gc += 1;
                total += 1;
            }
            b'A' | b'T' | b'a' | b't' => total += 1,
            _ => {}
        }
    }
    if total == 0 {
        0.0
    } else {
        gc as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for (i, &b) in BASES.iter().enumerate() {
            assert_eq!(encode_base(b), Some(i as u8));
            assert_eq!(decode_base(i as u8), b);
        }
    }

    #[test]
    fn encode_rejects_ambiguous() {
        assert_eq!(encode_base(b'N'), None);
        assert_eq!(encode_base(b'X'), None);
        assert_eq!(encode_base(b'-'), None);
    }

    #[test]
    fn encode_accepts_lowercase() {
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b't'), Some(3));
    }

    #[test]
    fn complement_is_involution() {
        for &b in &BASES {
            assert_eq!(complement(complement(b)), b);
        }
        assert_eq!(complement(b'N'), b'N');
    }

    #[test]
    fn revcomp_simple() {
        assert_eq!(revcomp(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(revcomp(b"AACC"), b"GGTT".to_vec());
        assert_eq!(revcomp(b"GATTACA"), b"TGTAATC".to_vec());
    }

    #[test]
    fn revcomp_in_place_matches_functional() {
        let mut s = b"ACCGTTGAN".to_vec();
        let expect = revcomp(&s);
        revcomp_in_place(&mut s);
        assert_eq!(s, expect);
    }

    #[test]
    fn normalize_maps_unknowns_to_n() {
        assert_eq!(normalize(b"acgtXz-"), b"ACGTNNN".to_vec());
    }

    #[test]
    fn gc_content_basic() {
        assert!((gc_content(b"GGCC") - 1.0).abs() < 1e-12);
        assert!((gc_content(b"AATT") - 0.0).abs() < 1e-12);
        assert!((gc_content(b"ACGT") - 0.5).abs() < 1e-12);
        assert!((gc_content(b"NNNN") - 0.0).abs() < 1e-12);
    }
}
