//! Fixed-seed smoke version of the frame-reader differential (the
//! property suite, with its byte-at-a-time oracle, lives in
//! `crates/logfmt/tests/prop.rs`): what a reader delivers — records,
//! errors, counters, position, quarantine — depends on the bytes of
//! the stream alone, never on how the source chunks its reads.

use ipactive::logfmt::{BlockDay, FrameReader, FrameWriter, QuarantinedFrame, ReadMode, Record};
use ipactive::net::{Addr, Block24};
use std::io::Read;

/// A source that hands out at most `chunk` bytes a call.
struct Chunked<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[derive(Debug, PartialEq)]
struct Observed {
    /// Every `read()` result in order, errors by their `Debug` text.
    reads: Vec<Result<Record, String>>,
    skipped: u64,
    resyncs: u64,
    truncated_tail: bool,
    position: u64,
    quarantine: Vec<QuarantinedFrame>,
}

fn observe(stream: &[u8], chunk: usize, mode: ReadMode) -> Observed {
    let mut reader =
        FrameReader::new(Chunked { data: stream, chunk }, mode).capture_quarantine(true);
    let mut reads = Vec::new();
    for _ in 0..=stream.len() + 1 {
        match reader.read() {
            Ok(Some(rec)) => reads.push(Ok(rec)),
            Ok(None) => break,
            Err(e) => reads.push(Err(format!("{e:?}"))),
        }
    }
    assert!(matches!(reader.read(), Ok(None)), "reader did not come to rest");
    Observed {
        reads,
        skipped: reader.skipped(),
        resyncs: reader.resyncs(),
        truncated_tail: reader.truncated_tail(),
        position: reader.position(),
        quarantine: reader.take_quarantine(),
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % bound
    }
}

fn sample_stream(rng: &mut Lcg) -> (Vec<Record>, Vec<u8>) {
    let mut records = Vec::new();
    for i in 0..40u32 {
        let addr = Addr::new(0x0A00_0000 + rng.next(4096) as u32);
        let day = rng.next(112) as u16;
        records.push(match rng.next(4) {
            0 => Record::DayStart { day },
            1 => Record::UaSample { day, addr, ua_hash: rng.next(usize::MAX) as u64 },
            2 => {
                let entries = (0..rng.next(257)).map(|h| (h as u8, 1 + u64::from(i))).collect();
                Record::BlockDay(Box::new(BlockDay::new(day, Block24::of(addr), entries)))
            }
            _ => Record::Hits { day, addr, hits: 1 + rng.next(1 << 40) as u64 },
        });
    }
    let mut w = FrameWriter::new(Vec::new());
    for r in &records {
        w.write(r).unwrap();
    }
    (records, w.finish().unwrap())
}

#[test]
fn every_chunking_reads_the_same_clean_or_damaged() {
    let mut rng = Lcg(0x2015_0817);
    let mut damaged_reads = 0;
    for round in 0..120 {
        let (records, clean) = sample_stream(&mut rng);
        let mut stream = clean.clone();
        for _ in 0..round % 4 {
            // One fault a pass; round % 4 == 0 stays clean.
            let at = rng.next(stream.len());
            match rng.next(4) {
                0 => stream[at] ^= 1 << rng.next(8),
                1 => {
                    let junk = [0xA5, 0xFF, 0x00, 0x80][rng.next(4)];
                    let n = 1 + rng.next(11);
                    stream.splice(at..at, std::iter::repeat(junk).take(n));
                }
                2 => drop(stream.drain(at..(at + 1 + rng.next(20)).min(stream.len()))),
                _ => stream.truncate(at),
            }
        }
        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            let whole = observe(&stream, usize::MAX, mode);
            for chunk in [1, 7, 4096] {
                let got = observe(&stream, chunk, mode);
                assert_eq!(got, whole, "round {round}, chunk {chunk}, {mode:?}");
            }
            if stream == clean {
                let want: Vec<Result<Record, String>> = records.iter().cloned().map(Ok).collect();
                assert_eq!(whole.reads, want, "round {round}");
                assert_eq!(whole.position, clean.len() as u64);
                assert_eq!((whole.skipped, whole.resyncs, whole.truncated_tail), (0, 0, false));
            } else if whole.skipped + whole.resyncs > 0 {
                damaged_reads += 1;
            }
            // Damage loses records; it never invents one.
            for rec in whole.reads.iter().flatten() {
                assert!(records.contains(rec), "round {round}: fabricated {rec:?}");
            }
        }
    }
    assert!(damaged_reads > 50, "the faults must bite: {damaged_reads}");
}
