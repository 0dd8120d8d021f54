//! In-process byte pipes for driving the server without sockets.
//!
//! Tests and the load generator need a transport that behaves like a
//! stream socket — blocking reads, EOF on writer drop, `BrokenPipe`
//! when the reader went away — but stays deterministic and in-process.
//! [`pipe`] gives one unidirectional channel; [`duplex`] pairs two into
//! a connection.
//!
//! The pipe hands bytes over in batches. Writers append to one shared
//! `Vec` under a mutex; the reader owns a second `Vec` and serves
//! `read`s from it without locking. Only when that one is used up does
//! the reader take the lock and *swap* the two, so everything written
//! since the last swap crosses at once and the two allocations
//! ping-pong for the life of the pipe. How the reader waits, and the
//! rule that a writer wakes it only when it is parked, live in the
//! crate-private `handoff` module.

use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::handoff::Handoff;

#[derive(Default)]
struct Shared {
    /// Written and not yet swapped to the reader.
    buf: Vec<u8>,
    write_closed: bool,
    read_closed: bool,
}

/// Write half of a [`pipe`]; dropping it delivers EOF to the reader.
pub struct PipeWriter {
    ch: Arc<Handoff<Shared>>,
}

/// Read half of a [`pipe`]; blocks until bytes arrive or the writer
/// hangs up.
pub struct PipeReader {
    ch: Arc<Handoff<Shared>>,
    /// Bytes swapped out of the channel; `taken[at..]` is unread.
    taken: Vec<u8>,
    at: usize,
}

/// Creates an unbounded in-memory byte pipe.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let ch = Arc::new(Handoff::new(Shared::default()));
    (PipeWriter { ch: ch.clone() }, PipeReader { ch, taken: Vec::new(), at: 0 })
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.ch.publish(|st| {
            if st.read_closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader closed"));
            }
            st.buf.extend_from_slice(data);
            Ok(data.len())
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.ch.publish(|st| st.write_closed = true);
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        if self.at == self.taken.len() {
            self.taken.clear();
            self.at = 0;
            let taken = &mut self.taken;
            // Bytes written before the hang-up are delivered first:
            // EOF is reported only with both buffers empty.
            let eof = self.ch.wait(|st| {
                if !st.buf.is_empty() {
                    std::mem::swap(&mut st.buf, taken);
                    Some(false)
                } else {
                    st.write_closed.then_some(true)
                }
            });
            if eof {
                return Ok(0);
            }
        }
        let n = out.len().min(self.taken.len() - self.at);
        out[..n].copy_from_slice(&self.taken[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.ch.publish(|st| st.read_closed = true);
    }
}

/// One endpoint of a [`duplex`] connection: `Read` pulls from the peer,
/// `Write` pushes to it. Split into halves with [`DuplexConn::split`]
/// to hand the read side and write side to different threads.
pub struct DuplexConn {
    /// Bytes arriving from the peer.
    pub rx: PipeReader,
    /// Bytes heading to the peer.
    pub tx: PipeWriter,
}

impl DuplexConn {
    /// Splits the connection into independently-owned halves.
    pub fn split(self) -> (PipeReader, PipeWriter) {
        (self.rx, self.tx)
    }
}

impl Read for DuplexConn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.rx.read(out)
    }
}

impl Write for DuplexConn {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.tx.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tx.flush()
    }
}

/// Creates a connected pair of bidirectional in-process streams.
pub fn duplex() -> (DuplexConn, DuplexConn) {
    let (a_tx, b_rx) = pipe();
    let (b_tx, a_rx) = pipe();
    (
        DuplexConn { rx: a_rx, tx: a_tx },
        DuplexConn { rx: b_rx, tx: b_tx },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::thread;

    #[derive(Debug)]
    enum Op {
        Write(Vec<u8>),
        Read(usize),
        WriterHangsUp,
        ReaderHangsUp,
    }

    /// Writes and reads in about equal numbers, one-byte and empty
    /// reads among them; a hang-up once in a few dozen operations.
    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..48).prop_map(Op::Write),
            prop::collection::vec(any::<u8>(), 0..48).prop_map(Op::Write),
            (0usize..40).prop_map(Op::Read),
            (0usize..40).prop_map(Op::Read),
            (0usize..40).prop_map(Op::Read),
            (0u8..6).prop_map(|n| if n == 0 { Op::WriterHangsUp } else { Op::Read(1) }),
            (0u8..12).prop_map(|n| if n == 0 { Op::ReaderHangsUp } else { Op::Read(0) }),
        ]
    }

    proptest! {
        /// Whatever the interleaving of writes and reads of whatever
        /// sizes, the pipe is a byte queue: a read returns the front
        /// of what was written and not yet read (at least one byte,
        /// at most what was asked for), never a byte twice or out of
        /// order across a buffer swap, EOF only once the writer is
        /// gone *and* the last byte is out, `BrokenPipe` once the
        /// reader is gone. A read that would block is not issued.
        #[test]
        fn any_interleaving_of_writes_and_reads_is_a_byte_queue(
            ops in prop::collection::vec(arb_op(), 0..80),
        ) {
            let (w, r) = pipe();
            let (mut w, mut r) = (Some(w), Some(r));
            let mut model: VecDeque<u8> = VecDeque::new();
            for op in ops {
                match (op, &mut w, &mut r) {
                    (Op::Write(bytes), Some(w), Some(_)) => {
                        prop_assert_eq!(w.write(&bytes).unwrap(), bytes.len());
                        model.extend(bytes);
                    }
                    (Op::Write(bytes), Some(w), None) if !bytes.is_empty() => {
                        let err = w.write_all(&bytes).unwrap_err();
                        prop_assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
                    }
                    (Op::Read(n), w, Some(r)) if n == 0 || !model.is_empty() || w.is_none() => {
                        let mut out = vec![0u8; n];
                        let got = r.read(&mut out).unwrap();
                        prop_assert!(got <= n);
                        prop_assert_eq!(got == 0, n == 0 || model.is_empty());
                        let want: Vec<u8> = model.drain(..got).collect();
                        prop_assert_eq!(&out[..got], &want[..]);
                    }
                    (Op::WriterHangsUp, w, _) => *w = None,
                    (Op::ReaderHangsUp, _, r) => {
                        *r = None;
                        model.clear();
                    }
                    _ => {}
                }
            }
            // Whatever is still in flight arrives, in order, then EOF.
            drop(w);
            if let Some(mut r) = r {
                let mut rest = Vec::new();
                r.read_to_end(&mut rest).unwrap();
                prop_assert_eq!(rest, Vec::from(model));
                prop_assert_eq!(r.read(&mut [0u8; 8]).unwrap(), 0);
            }
        }
    }

    #[test]
    fn bytes_cross_the_pipe_in_order() {
        let (mut w, mut r) = pipe();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        drop(w);
        let mut got = String::new();
        r.read_to_string(&mut got).unwrap();
        assert_eq!(got, "hello world");
    }

    #[test]
    fn reader_blocks_until_writer_delivers() {
        let (mut w, mut r) = pipe();
        let handle = thread::spawn(move || {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf).unwrap();
            buf
        });
        // No wake-up may be lost: the write happens only once the
        // reader is parked — it has found nothing, counted itself and
        // released the lock into its wait — and must still reach it.
        while w.ch.parked() == 0 {
            std::hint::spin_loop();
        }
        w.write_all(b"ping").unwrap();
        assert_eq!(&handle.join().unwrap(), b"ping");
    }

    #[test]
    fn a_parked_reader_sees_the_writer_hang_up() {
        let (w, mut r) = pipe();
        let handle = thread::spawn(move || r.read(&mut [0u8; 4]).unwrap());
        while w.ch.parked() == 0 {
            std::hint::spin_loop();
        }
        drop(w);
        assert_eq!(handle.join().unwrap(), 0, "EOF");
    }

    #[test]
    fn writer_sees_broken_pipe_after_reader_drops() {
        let (mut w, r) = pipe();
        drop(r);
        let err = w.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn duplex_carries_traffic_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"req").unwrap();
        let mut buf = [0u8; 3];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"req");
        b.write_all(b"resp").unwrap();
        let mut buf = [0u8; 4];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"resp");
    }

    #[test]
    fn dropping_one_duplex_end_eofs_the_peer() {
        let (a, mut b) = duplex();
        drop(a);
        let mut buf = Vec::new();
        assert_eq!(b.read_to_end(&mut buf).unwrap(), 0);
    }
}
