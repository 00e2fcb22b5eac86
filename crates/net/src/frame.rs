//! Length-prefixed framing over async byte streams.
//!
//! Wire format: `u32` big-endian payload length, then the payload. The
//! maximum frame size is enforced on both read and write so a corrupt
//! or malicious length prefix cannot make the peer allocate unboundedly.

use crate::proto::encode_into;
use bytes::{Buf, BytesMut};
use knactor_types::{Error, Result};
use serde::Serialize;
use std::future::Future;
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};
use tokio::sync::mpsc;

/// Frames above this size are protocol errors (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Reads frames from an async byte stream, buffering internally.
pub struct FrameReader<R> {
    inner: R,
    buf: BytesMut,
}

impl<R: AsyncRead + Unpin> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: BytesMut::with_capacity(8 * 1024),
        }
    }

    /// Read one frame. `Ok(None)` on clean EOF at a frame boundary;
    /// `Err` on a mid-frame EOF or an oversized length prefix.
    pub async fn read_frame(&mut self) -> Result<Option<BytesMut>> {
        loop {
            if let Some(frame) = self.try_parse()? {
                return Ok(Some(frame));
            }
            let n = self.inner.read_buf(&mut self.buf).await?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(Error::Transport("connection reset mid-frame".to_string()));
            }
        }
    }

    fn try_parse(&mut self) -> Result<Option<BytesMut>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(Error::Transport(format!(
                "frame of {len} bytes exceeds MAX_FRAME"
            )));
        }
        if self.buf.len() < 4 + len {
            self.buf.reserve(4 + len - self.buf.len());
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len)))
    }
}

/// Writes frames to an async byte stream.
///
/// Frames are assembled (length prefix + payload) in a reusable scratch
/// buffer, so a frame costs exactly one `write_all` — not two writes and
/// a flush. Writer loops that drain a queue should *cork*: call
/// [`FrameWriter::write_frame_buffered`] per message and
/// [`FrameWriter::flush`] once the queue is empty, turning N frames into
/// one syscall-ish write.
pub struct FrameWriter<W> {
    inner: W,
    /// Encoded-but-unwritten frames (the cork).
    scratch: BytesMut,
}

impl<W: AsyncWrite + Unpin> FrameWriter<W> {
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            scratch: BytesMut::with_capacity(8 * 1024),
        }
    }

    /// Append one frame to the scratch buffer without checking length or
    /// touching the socket.
    fn buffer_frame(&mut self, payload: &[u8]) {
        self.scratch.reserve(4 + payload.len());
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.scratch.extend_from_slice(payload);
    }

    /// Write one frame and flush: the unbatched path, one buffered write
    /// for prefix + payload.
    pub async fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        self.write_frame_buffered(payload)?;
        self.flush().await
    }

    /// Stage one frame in the scratch buffer; nothing reaches the stream
    /// until [`FrameWriter::flush`]. Synchronous — no I/O happens here —
    /// and an oversized payload is rejected before staging, so it never
    /// poisons frames already in the buffer.
    pub fn write_frame_buffered(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(Error::Transport(format!(
                "refusing to send {}-byte frame (max {MAX_FRAME})",
                payload.len()
            )));
        }
        self.buffer_frame(payload);
        Ok(())
    }

    /// Bytes currently staged and unflushed.
    pub fn buffered_len(&self) -> usize {
        self.scratch.len()
    }

    /// Push every staged frame to the stream in one write, then flush it.
    pub async fn flush(&mut self) -> Result<()> {
        if !self.scratch.is_empty() {
            self.inner.write_all(&self.scratch).await?;
            self.scratch.clear();
        }
        self.inner.flush().await?;
        Ok(())
    }
}

/// Byte ceiling for one corked drain: once this much is staged unflushed,
/// the writer flushes before draining more of its queue.
const CORK_MAX_BYTES: usize = 256 * 1024;

/// The queue a connection's writer task drains. The client's is
/// unbounded; the server's is bounded, and that bound is the connection's
/// backpressure (DESIGN.md §8.1).
pub(crate) trait Outbox<T>: Send {
    fn recv(&mut self) -> impl Future<Output = Option<T>> + Send;
    fn try_recv(&mut self) -> Option<T>;
}

impl<T: Send> Outbox<T> for mpsc::UnboundedReceiver<T> {
    fn recv(&mut self) -> impl Future<Output = Option<T>> + Send {
        mpsc::UnboundedReceiver::recv(self)
    }

    fn try_recv(&mut self) -> Option<T> {
        mpsc::UnboundedReceiver::try_recv(self).ok()
    }
}

impl<T: Send> Outbox<T> for mpsc::Receiver<T> {
    fn recv(&mut self) -> impl Future<Output = Option<T>> + Send {
        mpsc::Receiver::recv(self)
    }

    fn try_recv(&mut self) -> Option<T> {
        mpsc::Receiver::try_recv(self).ok()
    }
}

/// A connection's writer task: everything one side sends goes through
/// here, until the queue closes or the socket fails. The loop is *corked*:
/// after the blocking recv it drains whatever else is already queued
/// (pipelined callers, batch fan-out, a burst of pushed events) into the
/// frame buffer and flushes once — N messages, one socket write.
///
/// The cork is byte-bounded: without the cap, a producer that refills the
/// queue as fast as this loop drains it would keep the drain going
/// forever, growing the staged buffer without bound and never reaching
/// the flush — which is where a slow peer's TCP backpressure actually
/// parks this task. The cap keeps the batching win while guaranteeing
/// every staged byte meets the socket.
pub(crate) async fn write_corked<T: Serialize + Send, W: AsyncWrite + Unpin>(
    mut queue: impl Outbox<T>,
    mut writer: FrameWriter<W>,
    role: &str,
) {
    let frames_per_flush = knactor_types::metrics::global().histogram(
        "knactor_net_batch_size",
        &[("role", role), ("unit", "frames")],
    );
    let mut scratch = String::new();
    while let Some(mut msg) = queue.recv().await {
        let mut frames = 0u64;
        loop {
            if encode_into(&msg, &mut scratch).is_err()
                || writer.write_frame_buffered(scratch.as_bytes()).is_err()
            {
                return;
            }
            frames += 1;
            if writer.buffered_len() >= CORK_MAX_BYTES {
                break;
            }
            match queue.try_recv() {
                Some(next) => msg = next,
                None => break,
            }
        }
        frames_per_flush.observe_ns(frames);
        if writer.flush().await.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn roundtrip_frames() {
        // Buffer must hold all frames: the writer runs before the reader.
        let (client, server) = tokio::io::duplex(4096);
        let mut w = FrameWriter::new(client);
        let mut r = FrameReader::new(server);
        w.write_frame(b"hello").await.unwrap();
        w.write_frame(b"").await.unwrap();
        w.write_frame(&[0u8; 1000]).await.unwrap();
        assert_eq!(&r.read_frame().await.unwrap().unwrap()[..], b"hello");
        assert_eq!(r.read_frame().await.unwrap().unwrap().len(), 0);
        assert_eq!(r.read_frame().await.unwrap().unwrap().len(), 1000);
    }

    #[tokio::test]
    async fn clean_eof_returns_none() {
        let (client, server) = tokio::io::duplex(64);
        let mut w = FrameWriter::new(client);
        w.write_frame(b"x").await.unwrap();
        drop(w);
        let mut r = FrameReader::new(server);
        assert!(r.read_frame().await.unwrap().is_some());
        assert!(r.read_frame().await.unwrap().is_none());
    }

    #[tokio::test]
    async fn mid_frame_eof_is_error() {
        let (client, server) = tokio::io::duplex(64);
        {
            use tokio::io::AsyncWriteExt;
            let mut raw = client;
            // Length says 100, but only 3 bytes follow.
            raw.write_all(&100u32.to_be_bytes()).await.unwrap();
            raw.write_all(b"abc").await.unwrap();
        }
        let mut r = FrameReader::new(server);
        assert!(r.read_frame().await.is_err());
    }

    #[tokio::test]
    async fn oversized_length_is_error() {
        let (client, server) = tokio::io::duplex(64);
        {
            use tokio::io::AsyncWriteExt;
            let mut raw = client;
            raw.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes())
                .await
                .unwrap();
        }
        let mut r = FrameReader::new(server);
        assert!(r.read_frame().await.is_err());
    }

    #[tokio::test]
    async fn oversized_write_refused() {
        let (client, _server) = tokio::io::duplex(64);
        let mut w = FrameWriter::new(client);
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(w.write_frame(&big).await.is_err());
    }

    /// Corked frames stay local until flush, then arrive intact and in
    /// order — the framing contract batching relies on.
    #[tokio::test]
    async fn buffered_frames_arrive_only_after_flush() {
        let (client, server) = tokio::io::duplex(4096);
        let mut w = FrameWriter::new(client);
        let mut r = FrameReader::new(server);
        w.write_frame_buffered(b"one").unwrap();
        w.write_frame_buffered(b"two").unwrap();
        assert_eq!(w.buffered_len(), 4 + 3 + 4 + 3);
        w.flush().await.unwrap();
        assert_eq!(w.buffered_len(), 0);
        assert_eq!(&r.read_frame().await.unwrap().unwrap()[..], b"one");
        assert_eq!(&r.read_frame().await.unwrap().unwrap()[..], b"two");
    }

    #[tokio::test]
    async fn oversized_buffered_frame_leaves_staged_frames_intact() {
        let (client, server) = tokio::io::duplex(4096);
        let mut w = FrameWriter::new(client);
        w.write_frame_buffered(b"good").unwrap();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(w.write_frame_buffered(&big).is_err());
        w.flush().await.unwrap();
        let mut r = FrameReader::new(server);
        assert_eq!(&r.read_frame().await.unwrap().unwrap()[..], b"good");
    }
}
