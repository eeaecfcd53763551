//! Minimal FASTQ parsing and writing (Sanger / Phred+33 encoding).
//!
//! FASTQ is the input format for sequencing reads. Each record is four lines:
//! `@name`, sequence, `+`, quality string. Qualities are stored internally as
//! raw Phred scores (already offset-corrected).

use crate::read::{Read, ReadLibrary};
use std::fmt::Write as _;

/// ASCII offset of the Sanger/Illumina-1.8 quality encoding.
pub const PHRED_OFFSET: u8 = 33;

/// One parsed FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    pub name: String,
    pub seq: Vec<u8>,
    /// Raw Phred scores (offset already removed).
    pub qual: Vec<u8>,
}

/// A structural defect in FASTQ input — truncated mid-record, malformed
/// lines, quality/sequence disagreement. Typed so callers can match on the
/// failure mode ("file cut off mid-record" against "corrupt record") instead
/// of grepping a message; the `Display` form carries the 1-based record
/// index for human consumption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastqError {
    /// The header line does not start with `@`.
    BadHeader { record: usize },
    /// Input ended (or went blank) before the record's sequence line.
    MissingSequence { record: usize },
    /// Input ended before the record's `+` separator line.
    MissingSeparator { record: usize },
    /// The separator line does not start with `+`.
    BadSeparator { record: usize },
    /// Input ended before the record's quality line.
    MissingQuality { record: usize },
    /// The quality line length differs from the sequence length.
    QualityLengthMismatch {
        record: usize,
        qual: usize,
        seq: usize,
    },
    /// A quality character below `!` (not a Phred+33 score).
    QualityOutOfRange { record: usize },
    /// Interleaved pair input held an odd number of records.
    OddRecordCount { records: usize },
}

impl FastqError {
    /// The 1-based index of the offending record (`None` for whole-input
    /// errors such as an odd record count).
    pub fn record(&self) -> Option<usize> {
        match *self {
            FastqError::BadHeader { record }
            | FastqError::MissingSequence { record }
            | FastqError::MissingSeparator { record }
            | FastqError::BadSeparator { record }
            | FastqError::MissingQuality { record }
            | FastqError::QualityLengthMismatch { record, .. }
            | FastqError::QualityOutOfRange { record } => Some(record),
            FastqError::OddRecordCount { .. } => None,
        }
    }
}

impl std::fmt::Display for FastqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FastqError::BadHeader { record } => {
                write!(f, "record {record}: header does not start with '@'")
            }
            FastqError::MissingSequence { record } => {
                write!(f, "record {record}: missing sequence line")
            }
            FastqError::MissingSeparator { record } => {
                write!(f, "record {record}: missing '+' line")
            }
            FastqError::BadSeparator { record } => {
                write!(f, "record {record}: separator line does not start with '+'")
            }
            FastqError::MissingQuality { record } => {
                write!(f, "record {record}: missing quality line")
            }
            FastqError::QualityLengthMismatch { record, qual, seq } => {
                write!(
                    f,
                    "record {record}: quality length {qual} != sequence length {seq}"
                )
            }
            FastqError::QualityOutOfRange { record } => {
                write!(f, "record {record}: quality character below '!'")
            }
            FastqError::OddRecordCount { records } => {
                write!(
                    f,
                    "interleaved FASTQ must hold an even number of records, got {records}"
                )
            }
        }
    }
}

impl std::error::Error for FastqError {}

impl From<FastqRecord> for Read {
    fn from(r: FastqRecord) -> Self {
        Read::new(r.name, &r.seq, &r.qual)
    }
}

/// Streaming one-record-at-a-time FASTQ cursor over borrowed text.
///
/// CRLF line endings are accepted: `str::lines` strips `\r\n` pairs, but a
/// CRLF file whose final record lacks a trailing newline leaves a bare `\r`
/// on its last line (typically the quality string, whose length check would
/// then fail and drop the record) — so every line is additionally stripped of
/// a trailing `\r` here.
struct RecordParser<'a> {
    lines: std::str::Lines<'a>,
    idx: usize,
}

impl<'a> RecordParser<'a> {
    fn new(text: &'a str) -> Self {
        RecordParser {
            lines: text.lines(),
            idx: 0,
        }
    }

    fn next_line(&mut self) -> Option<&'a str> {
        for l in self.lines.by_ref() {
            let l = l.strip_suffix('\r').unwrap_or(l);
            if !l.is_empty() {
                return Some(l);
            }
        }
        None
    }

    /// Parses the next record, or `None` at end of input. Errors carry the
    /// 1-based record index.
    fn next_record(&mut self) -> Option<Result<FastqRecord, FastqError>> {
        let header = self.next_line()?;
        self.idx += 1;
        Some(self.finish_record(header))
    }

    fn finish_record(&mut self, header: &str) -> Result<FastqRecord, FastqError> {
        let record = self.idx;
        let name = header
            .strip_prefix('@')
            .ok_or(FastqError::BadHeader { record })?
            .to_string();
        let seq = self
            .next_line()
            .ok_or(FastqError::MissingSequence { record })?;
        let plus = self
            .next_line()
            .ok_or(FastqError::MissingSeparator { record })?;
        if !plus.starts_with('+') {
            return Err(FastqError::BadSeparator { record });
        }
        let qual = self
            .next_line()
            .ok_or(FastqError::MissingQuality { record })?;
        if qual.len() != seq.len() {
            return Err(FastqError::QualityLengthMismatch {
                record,
                qual: qual.len(),
                seq: seq.len(),
            });
        }
        let qual: Vec<u8> = qual
            .bytes()
            .map(|b| {
                if b < PHRED_OFFSET {
                    Err(FastqError::QualityOutOfRange { record })
                } else {
                    Ok(b - PHRED_OFFSET)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(FastqRecord {
            name,
            seq: crate::alphabet::normalize(seq.as_bytes()),
            qual,
        })
    }
}

/// Parses FASTQ text into records. Errors carry the 1-based record index.
/// CRLF line endings and a missing trailing newline are accepted.
pub fn parse_fastq(text: &str) -> Result<Vec<FastqRecord>, FastqError> {
    let mut parser = RecordParser::new(text);
    let mut records = Vec::new();
    while let Some(rec) = parser.next_record() {
        records.push(rec?);
    }
    Ok(records)
}

/// Writes records as FASTQ text.
pub fn write_fastq(records: &[FastqRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let _ = writeln!(out, "@{}", rec.name);
        let _ = writeln!(out, "{}", String::from_utf8_lossy(&rec.seq));
        let _ = writeln!(out, "+");
        let qual: String = rec
            .qual
            .iter()
            .map(|&q| (q.min(93) + PHRED_OFFSET) as char)
            .collect();
        let _ = writeln!(out, "{}", qual);
    }
    out
}

/// Serialises a whole read library as interleaved FASTQ.
pub fn library_to_fastq(lib: &ReadLibrary) -> String {
    let recs: Vec<FastqRecord> = lib
        .reads
        .iter()
        .map(|r| FastqRecord {
            name: r.name.clone(),
            seq: r.seq.clone(),
            qual: r.qual.clone(),
        })
        .collect();
    write_fastq(&recs)
}

/// Parses interleaved FASTQ text into a paired read library with the given
/// insert-size model.
pub fn library_from_fastq(
    name: &str,
    text: &str,
    insert_size: usize,
    insert_sd: usize,
) -> Result<ReadLibrary, FastqError> {
    let recs = parse_fastq(text)?;
    if recs.len() % 2 != 0 {
        return Err(FastqError::OddRecordCount {
            records: recs.len(),
        });
    }
    let mut lib = ReadLibrary::new_paired(name, insert_size, insert_sd);
    let mut it = recs.into_iter();
    while let (Some(a), Some(b)) = (it.next(), it.next()) {
        lib.push_pair(a.into(), b.into());
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "@r1/1\nACGT\n+\nIIII\n@r1/2\nTTGG\n+\n!!II\n";

    #[test]
    fn parse_simple() {
        let recs = parse_fastq(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "r1/1");
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        assert_eq!(recs[0].qual, vec![40, 40, 40, 40]);
        assert_eq!(recs[1].qual, vec![0, 0, 40, 40]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_fastq("r1\nACGT\n+\nIIII\n").is_err());
        assert!(parse_fastq("@r1\nACGT\nplus\nIIII\n").is_err());
        assert!(parse_fastq("@r1\nACGT\n+\nIII\n").is_err());
        assert!(parse_fastq("@r1\nACGT\n+\n").is_err());
    }

    #[test]
    fn truncated_input_yields_typed_errors() {
        // Mid-record EOF at every possible cut point maps to the precise
        // missing-line variant, with the 1-based record index.
        assert_eq!(
            parse_fastq("@r1\nACGT\n+\nIIII\n@r2"),
            Err(FastqError::MissingSequence { record: 2 })
        );
        assert_eq!(
            parse_fastq("@r1\nACGT"),
            Err(FastqError::MissingSeparator { record: 1 })
        );
        assert_eq!(
            parse_fastq("@r1\nACGT\n+"),
            Err(FastqError::MissingQuality { record: 1 })
        );
        assert_eq!(parse_fastq("@r1\nACGT\n+").unwrap_err().record(), Some(1));
    }

    #[test]
    fn corrupt_record_yields_typed_errors() {
        assert_eq!(
            parse_fastq("r1\nACGT\n+\nIIII\n"),
            Err(FastqError::BadHeader { record: 1 })
        );
        assert_eq!(
            parse_fastq("@r1\nACGT\nplus\nIIII\n"),
            Err(FastqError::BadSeparator { record: 1 })
        );
        assert_eq!(
            parse_fastq("@r1\nACGT\n+\nIII\n"),
            Err(FastqError::QualityLengthMismatch {
                record: 1,
                qual: 3,
                seq: 4
            })
        );
        assert_eq!(
            parse_fastq("@r1\nACGT\n+\nII \u{8}\n"),
            Err(FastqError::QualityOutOfRange { record: 1 })
        );
        assert_eq!(
            library_from_fastq("l", "@only\nACGT\n+\nIIII\n", 1, 1).unwrap_err(),
            FastqError::OddRecordCount { records: 1 }
        );
        // Display keeps the human-readable form.
        let msg = FastqError::QualityLengthMismatch {
            record: 7,
            qual: 3,
            seq: 4,
        }
        .to_string();
        assert_eq!(msg, "record 7: quality length 3 != sequence length 4");
    }

    #[test]
    fn roundtrip() {
        let recs = parse_fastq(SAMPLE).unwrap();
        let text = write_fastq(&recs);
        let back = parse_fastq(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn crlf_and_missing_trailing_newline_parse_clean() {
        // CRLF line endings with no trailing newline on the final record:
        // without explicit `\r` stripping the last quality line keeps a bare
        // `\r`, fails the length check, and the record is lost.
        let text = "@r1/1\r\nACGT\r\n+\r\nIIII\r\n@r1/2\r\nTTGG\r\n+\r\n!!II";
        let recs = parse_fastq(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        assert_eq!(recs[1].seq, b"TTGG".to_vec());
        assert_eq!(recs[1].qual, vec![0, 0, 40, 40]);
        assert!(recs.iter().all(|r| !r.seq.contains(&b'\r')));
        // Round trip through the (LF) writer is lossless.
        let back = parse_fastq(&write_fastq(&recs)).unwrap();
        assert_eq!(back, recs);
        // And the same records parse identically from LF text without a
        // trailing newline.
        let lf = parse_fastq("@r1/1\nACGT\n+\nIIII\n@r1/2\nTTGG\n+\n!!II").unwrap();
        assert_eq!(lf, recs);
    }

    #[test]
    fn library_roundtrip() {
        let lib = library_from_fastq("lib", SAMPLE, 250, 25).unwrap();
        assert_eq!(lib.num_pairs(), 1);
        assert_eq!(lib.insert_size, 250);
        let text = library_to_fastq(&lib);
        let lib2 = library_from_fastq("lib", &text, 250, 25).unwrap();
        assert_eq!(lib2.reads, lib.reads);
    }

    #[test]
    fn odd_record_count_rejected_for_pairs() {
        let text = "@only\nACGT\n+\nIIII\n";
        assert!(library_from_fastq("l", text, 1, 1).is_err());
    }
}
