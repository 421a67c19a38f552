//! The length-prefixed TCP wire protocol (see DESIGN.md §14).
//!
//! Every message is a *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. The first payload byte is the
//! message type.
//!
//! Requests:
//!
//! ```text
//! classify:    [0x01][seq: u64][seed: u64][n: u32][n × f32 pixels]
//! shutdown:    [0x02]
//! classify-at: [0x03][seq: u64][seed: u64][t: f64][n: u32][n × f32 pixels]
//! ```
//!
//! Responses:
//!
//! ```text
//! logits:       [0x01][seq: u64][kind_len: u8][kind utf-8][enob: f64]
//!               [n_mult: u64][k: u32][k × f32 logits]
//! shutdown ack: [0x02]   (sent only after the request queue has drained)
//! logits-at:    [0x03][seq: u64][t: f64][kind_len: u8][kind utf-8][enob: f64]
//!               [n_mult: u64][k: u32][k × f32 logits]
//! ```
//!
//! All multi-byte integers and floats are little-endian. `seq` is chosen
//! by the client and echoed verbatim, so a client may pipeline several
//! classify requests on one connection and match responses out of order.
//! `seed` is the per-request noise seed: the daemon guarantees the reply
//! logits are bit-identical to an offline `reseed_noise(seed)` + batch-1
//! evaluation, whichever worker answers it.
//!
//! `classify-at` (0x03) additionally pins the simulated inference time
//! `t` (seconds after programming, positive and finite) the drift-aware
//! error models realize weights at; the reply echoes it. Plain classify
//! (0x01) stays byte-identical to the pre-drift protocol and runs at the
//! scenario's configured time (see DESIGN.md §15).

use std::io::{self, Read, Write};

/// Payload tag of classify requests and logits responses.
pub const MSG_CLASSIFY: u8 = 1;
/// Payload tag of shutdown requests and their (post-drain) acks.
pub const MSG_SHUTDOWN: u8 = 2;
/// Payload tag of time-pinned classify requests and their responses.
pub const MSG_CLASSIFY_AT: u8 = 3;

/// Frames larger than this are rejected as corrupt rather than allocated.
pub const MAX_FRAME: usize = 16 << 20;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one image under the given noise seed.
    Classify(ClassifyRequest),
    /// Drain the queue, ack, and stop the daemon.
    Shutdown,
}

/// One classify request: a single image plus its noise seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRequest {
    /// Client-chosen id, echoed in the response.
    pub seq: u64,
    /// Per-request noise seed (the offline `reseed_noise` pass seed).
    pub seed: u64,
    /// Pinned simulated inference time in seconds (`classify-at`);
    /// `None` for a plain classify at the scenario's configured time.
    pub t_infer: Option<f64>,
    /// Flattened `(C, H, W)` image, pixel values in `[0, 1]`.
    pub pixels: Vec<f32>,
}

/// The hardware configuration echoed with every logits response.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareInfo {
    /// Error model kind key (e.g. `lumped`).
    pub error_model: String,
    /// `ENOB_VMAC` of the served scenario (0 for ideal digital hardware).
    pub enob: f64,
    /// `N_mult` of the served scenario (0 for ideal digital hardware).
    pub n_mult: u64,
}

/// One logits response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyResponse {
    /// The request's `seq`, echoed.
    pub seq: u64,
    /// The request's pinned inference time, echoed (`None` for plain
    /// classify — the reply stays byte-identical to the 0x01 layout).
    pub t_infer: Option<f64>,
    /// The served hardware configuration.
    pub hardware: HardwareInfo,
    /// Raw classifier outputs, one per class.
    pub logits: Vec<f32>,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

/// Reads one frame's payload; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors, EOF mid-frame (inside the length prefix too), or an
/// over-[`MAX_FRAME`] length prefix, which is refused before anything is
/// allocated for the payload.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // Only EOF before the prefix's first byte is clean; once a frame has
    // started, a short read is a torn frame.
    match r.read_exact(&mut len[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(bad("length prefix exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// Underlying I/O errors; payloads over [`MAX_FRAME`] are rejected.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad("payload exceeds MAX_FRAME"));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// A little-endian payload cursor.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| bad("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let raw = self.take(n.checked_mul(4).ok_or_else(|| bad("count overflow"))?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }
}

/// Encodes a classify request payload: the 0x03 `classify-at` layout
/// when an inference time is pinned, the pre-drift 0x01 layout otherwise.
pub fn encode_classify(req: &ClassifyRequest) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + 8 + 8 + 8 + 4 + req.pixels.len() * 4);
    p.push(match req.t_infer {
        Some(_) => MSG_CLASSIFY_AT,
        None => MSG_CLASSIFY,
    });
    p.extend_from_slice(&req.seq.to_le_bytes());
    p.extend_from_slice(&req.seed.to_le_bytes());
    if let Some(t) = req.t_infer {
        p.extend_from_slice(&t.to_bits().to_le_bytes());
    }
    p.extend_from_slice(&(req.pixels.len() as u32).to_le_bytes());
    for &x in &req.pixels {
        p.extend_from_slice(&x.to_le_bytes());
    }
    p
}

/// Encodes the one-byte shutdown request payload.
pub fn encode_shutdown() -> Vec<u8> {
    vec![MSG_SHUTDOWN]
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on unknown tags, truncation, or
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let req = match r.u8()? {
        MSG_CLASSIFY => {
            let seq = r.u64()?;
            let seed = r.u64()?;
            let n = r.u32()? as usize;
            Request::Classify(ClassifyRequest {
                seq,
                seed,
                t_infer: None,
                pixels: r.f32s(n)?,
            })
        }
        MSG_CLASSIFY_AT => {
            let seq = r.u64()?;
            let seed = r.u64()?;
            let t = r.f64()?;
            if !t.is_finite() || t <= 0.0 {
                return Err(bad("inference time must be positive and finite"));
            }
            let n = r.u32()? as usize;
            Request::Classify(ClassifyRequest {
                seq,
                seed,
                t_infer: Some(t),
                pixels: r.f32s(n)?,
            })
        }
        MSG_SHUTDOWN => Request::Shutdown,
        other => return Err(bad(&format!("unknown request tag {other}"))),
    };
    r.done()?;
    Ok(req)
}

/// Encodes a logits response payload: the 0x03 `logits-at` layout when
/// the request pinned a time, the pre-drift 0x01 layout otherwise.
pub fn encode_response(resp: &ClassifyResponse) -> Vec<u8> {
    let kind = resp.hardware.error_model.as_bytes();
    assert!(kind.len() <= u8::MAX as usize, "error model kind too long");
    let mut p = Vec::with_capacity(1 + 8 + 8 + 1 + kind.len() + 8 + 8 + 4 + resp.logits.len() * 4);
    p.push(match resp.t_infer {
        Some(_) => MSG_CLASSIFY_AT,
        None => MSG_CLASSIFY,
    });
    p.extend_from_slice(&resp.seq.to_le_bytes());
    if let Some(t) = resp.t_infer {
        p.extend_from_slice(&t.to_bits().to_le_bytes());
    }
    p.push(kind.len() as u8);
    p.extend_from_slice(kind);
    p.extend_from_slice(&resp.hardware.enob.to_bits().to_le_bytes());
    p.extend_from_slice(&resp.hardware.n_mult.to_le_bytes());
    p.extend_from_slice(&(resp.logits.len() as u32).to_le_bytes());
    for &x in &resp.logits {
        p.extend_from_slice(&x.to_le_bytes());
    }
    p
}

/// Decodes a logits response payload; `Ok(None)` for a shutdown ack.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on unknown tags, truncation, bad UTF-8
/// in the kind, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> io::Result<Option<ClassifyResponse>> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    match r.u8()? {
        tag @ (MSG_CLASSIFY | MSG_CLASSIFY_AT) => {
            let seq = r.u64()?;
            let t_infer = if tag == MSG_CLASSIFY_AT {
                Some(r.f64()?)
            } else {
                None
            };
            let kind_len = r.u8()? as usize;
            let kind = std::str::from_utf8(r.take(kind_len)?)
                .map_err(|_| bad("kind is not UTF-8"))?
                .to_string();
            let enob = r.f64()?;
            let n_mult = r.u64()?;
            let k = r.u32()? as usize;
            let logits = r.f32s(k)?;
            r.done()?;
            Ok(Some(ClassifyResponse {
                seq,
                t_infer,
                hardware: HardwareInfo {
                    error_model: kind,
                    enob,
                    n_mult,
                },
                logits,
            }))
        }
        MSG_SHUTDOWN => {
            r.done()?;
            Ok(None)
        }
        other => Err(bad(&format!("unknown response tag {other}"))),
    }
}

/// A blocking client for the serve protocol: one request in flight.
///
/// For concurrent load open several clients; each call is a full round
/// trip.
#[derive(Debug)]
pub struct ServeClient {
    stream: std::net::TcpStream,
}

impl ServeClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection errors.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// One classify round trip.
    ///
    /// # Errors
    ///
    /// I/O errors, a malformed reply, or an unexpected shutdown ack.
    pub fn classify(
        &mut self,
        seq: u64,
        seed: u64,
        pixels: &[f32],
    ) -> io::Result<ClassifyResponse> {
        self.classify_req(ClassifyRequest {
            seq,
            seed,
            t_infer: None,
            pixels: pixels.to_vec(),
        })
    }

    /// One classify round trip pinned to a simulated inference time
    /// (seconds after programming; positive, finite). The reply echoes
    /// the time.
    ///
    /// # Errors
    ///
    /// I/O errors, a malformed reply, or an unexpected shutdown ack.
    pub fn classify_at(
        &mut self,
        seq: u64,
        seed: u64,
        t_infer: f64,
        pixels: &[f32],
    ) -> io::Result<ClassifyResponse> {
        self.classify_req(ClassifyRequest {
            seq,
            seed,
            t_infer: Some(t_infer),
            pixels: pixels.to_vec(),
        })
    }

    fn classify_req(&mut self, req: ClassifyRequest) -> io::Result<ClassifyResponse> {
        write_frame(&mut self.stream, &encode_classify(&req))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_response(&payload)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected shutdown ack"))
    }

    /// Requests shutdown and blocks until the post-drain ack arrives.
    ///
    /// # Errors
    ///
    /// I/O errors or a non-ack reply.
    pub fn shutdown(mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_shutdown())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        match decode_response(&payload)? {
            None => Ok(()),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected shutdown ack",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_request_round_trips() {
        let req = ClassifyRequest {
            seq: 7,
            seed: 0xDEAD_BEEF,
            t_infer: None,
            pixels: vec![0.0, 0.5, 1.0],
        };
        let payload = encode_classify(&req);
        // The plain classify layout is frozen: pre-drift byte layout.
        assert_eq!(payload[0], MSG_CLASSIFY);
        assert_eq!(payload.len(), 1 + 8 + 8 + 4 + 3 * 4);
        assert_eq!(decode_request(&payload).unwrap(), Request::Classify(req));
    }

    #[test]
    fn classify_at_request_round_trips() {
        let req = ClassifyRequest {
            seq: 7,
            seed: 0xDEAD_BEEF,
            t_infer: Some(3600.0),
            pixels: vec![0.0, 0.5, 1.0],
        };
        let payload = encode_classify(&req);
        assert_eq!(payload[0], MSG_CLASSIFY_AT);
        assert_eq!(decode_request(&payload).unwrap(), Request::Classify(req));
    }

    #[test]
    fn classify_at_rejects_bad_times() {
        for t in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let req = ClassifyRequest {
                seq: 1,
                seed: 2,
                t_infer: Some(t),
                pixels: vec![1.0],
            };
            assert!(
                decode_request(&encode_classify(&req)).is_err(),
                "t = {t} should be rejected"
            );
        }
    }

    #[test]
    fn shutdown_round_trips() {
        assert_eq!(
            decode_request(&encode_shutdown()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn response_round_trips() {
        let resp = ClassifyResponse {
            seq: 42,
            t_infer: None,
            hardware: HardwareInfo {
                error_model: "lumped".into(),
                enob: 4.5,
                n_mult: 8,
            },
            logits: vec![1.25, -3.5],
        };
        let payload = encode_response(&resp);
        assert_eq!(payload[0], MSG_CLASSIFY);
        assert_eq!(decode_response(&payload).unwrap(), Some(resp));
    }

    #[test]
    fn timed_response_round_trips_and_echoes_time() {
        let resp = ClassifyResponse {
            seq: 42,
            t_infer: Some(86_400.0),
            hardware: HardwareInfo {
                error_model: "drifting-pcm".into(),
                enob: 4.5,
                n_mult: 8,
            },
            logits: vec![1.25, -3.5],
        };
        let payload = encode_response(&resp);
        assert_eq!(payload[0], MSG_CLASSIFY_AT);
        let decoded = decode_response(&payload).unwrap().unwrap();
        assert_eq!(decoded.t_infer, Some(86_400.0));
        assert_eq!(decoded, resp);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let req = ClassifyRequest {
            seq: 1,
            seed: 2,
            t_infer: None,
            pixels: vec![1.0; 4],
        };
        let mut payload = encode_classify(&req);
        payload.truncate(payload.len() - 1);
        assert!(decode_request(&payload).is_err());
        // Trailing garbage is also rejected.
        let mut padded = encode_shutdown();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        assert!(decode_request(&[9]).is_err());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
