//! The wire protocol: length-prefixed frames carrying one ASCII command
//! or response each.
//!
//! # Frame layout
//!
//! ```text
//! <decimal byte length of body>\n<body bytes>
//! ```
//!
//! The length line is plain ASCII digits (no sign, no padding, at most
//! [`MAX_FRAME_DIGITS`] of them) terminated by a single `\n`; the body
//! follows verbatim and is *not* newline-terminated by the framing
//! (multi-line bodies simply contain `\n` bytes). A frame body is at
//! most [`MAX_FRAME`] bytes — a peer announcing more is a protocol
//! error, not an allocation request.
//!
//! # Request grammar
//!
//! ```text
//! EVAL <cus> <mhz> <tbps>      evaluate one design point
//! SWEEP coarse|fine            evaluate a whole design space
//! FRONTIER                     Pareto frontier over every cached record
//! STATS                        serving counters
//! SNAPSHOT                     atomically rewrite the persistent cache
//! SHUTDOWN                     stop accepting and drain
//! ```
//!
//! Responses are one frame each: `OK <payload>`, `ERR <message>`, or
//! `BUSY` (admission rejection — the server closes the connection after
//! sending it).

use std::io::{self, Read, Write};

use ena_core::dse::ConfigPoint;
use ena_model::units::{GigabytesPerSec, Megahertz};

/// Maximum frame body size in bytes.
pub const MAX_FRAME: usize = 64 * 1024;

/// Maximum digits in the length line (enough for [`MAX_FRAME`]).
pub const MAX_FRAME_DIGITS: usize = 8;

/// The admission-control rejection response body.
pub const BUSY: &str = "BUSY";

/// Writes one frame (`length\nbody`) and flushes it.
///
/// # Errors
///
/// Propagates any I/O error from the underlying stream.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(format!("{}\n", body.len()).as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Incremental frame reader over any byte stream.
///
/// Owns the stream (use [`FrameReader::get_mut`] to write responses on
/// the same connection) and an internal buffer, so already-received
/// bytes can be inspected without blocking — the hook the server's
/// request batching uses to group back-to-back `EVAL`s.
#[derive(Debug)]
pub struct FrameReader<S> {
    stream: S,
    buf: Vec<u8>,
    pos: usize,
}

impl<S: Read> FrameReader<S> {
    /// Wraps `stream` with an empty buffer.
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The underlying stream, for writing responses.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads the next frame, blocking until it is complete. `Ok(None)`
    /// means the peer closed the connection cleanly at a frame boundary.
    ///
    /// # Errors
    ///
    /// An I/O error from the stream, or `InvalidData` for a malformed
    /// length line, an oversized frame, or EOF mid-frame.
    pub fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                if self.pos == self.buf.len() {
                    return Ok(None); // clean EOF at a frame boundary
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "connection closed mid-frame",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Returns the next frame if its bytes are already buffered, without
    /// reading from the stream. `Ok(None)` means no complete frame is
    /// buffered (the caller should fall back to [`FrameReader::read_frame`]
    /// when it wants to block).
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed length line or oversized frame.
    pub fn buffered_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.take_buffered()
    }

    /// Parses one frame out of the buffer, consuming it.
    fn take_buffered(&mut self) -> io::Result<Option<Vec<u8>>> {
        let bytes = &self.buf[self.pos..];
        let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
            if bytes.len() > MAX_FRAME_DIGITS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame length line is not terminated",
                ));
            }
            return Ok(None);
        };
        let digits = &bytes[..nl];
        let len: usize = std::str::from_utf8(digits)
            .ok()
            .filter(|d| !d.is_empty() && d.len() <= MAX_FRAME_DIGITS)
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "malformed frame length line")
            })?;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
            ));
        }
        let body_start = nl + 1;
        if bytes.len() < body_start + len {
            return Ok(None); // body not fully received yet
        }
        let frame = bytes[body_start..body_start + len].to_vec();
        self.pos += body_start + len;
        // Compact once the consumed prefix dominates the buffer, so a
        // long-lived connection does not grow it without bound.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

/// One parsed client request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Request {
    /// Evaluate one design point.
    Eval(EvalPoint),
    /// Evaluate a whole design space and report the reduction.
    Sweep {
        /// `true` for the paper's fine grid, `false` for the coarse one.
        fine: bool,
    },
    /// Pareto frontier over every cached record.
    Frontier,
    /// Serving counters.
    Stats,
    /// Atomically rewrite the persistent cache from the live store.
    Snapshot,
    /// Stop accepting connections and drain.
    Shutdown,
}

/// The design-point coordinates of an `EVAL` request, in the same units
/// the CLI takes (`--cus`, `--mhz`, `--tbps`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalPoint {
    /// Total CU count.
    pub cus: u32,
    /// GPU clock in MHz.
    pub mhz: f64,
    /// In-package bandwidth in TB/s.
    pub tbps: f64,
}

impl EvalPoint {
    /// The sweep-engine design point this request addresses. Uses the
    /// same unit conversions as the batch CLI, so a served record is the
    /// one `ena sweep` computes for the same point.
    pub fn to_config_point(self) -> ConfigPoint {
        ConfigPoint {
            cus: self.cus,
            clock: Megahertz::new(self.mhz),
            bandwidth: GigabytesPerSec::from_terabytes_per_sec(self.tbps),
        }
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown verb or malformed
    /// operands; the server relays it verbatim in an `ERR` response.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut fields = line.split_whitespace();
        let verb = fields.next().ok_or("empty request")?;
        let request = match verb {
            "EVAL" => {
                let mut operand = |name: &str| -> Result<&str, String> {
                    fields.next().ok_or(format!("EVAL is missing <{name}>"))
                };
                let cus = operand("cus")?;
                let cus: u32 = cus.parse().map_err(|_| format!("bad EVAL cus: {cus}"))?;
                let mhz = operand("mhz")?;
                let mhz: f64 = mhz.parse().map_err(|_| format!("bad EVAL mhz: {mhz}"))?;
                let tbps = operand("tbps")?;
                let tbps: f64 = tbps.parse().map_err(|_| format!("bad EVAL tbps: {tbps}"))?;
                if !mhz.is_finite() || !tbps.is_finite() {
                    return Err("EVAL operands must be finite".into());
                }
                Request::Eval(EvalPoint { cus, mhz, tbps })
            }
            "SWEEP" => match fields.next() {
                Some("coarse") => Request::Sweep { fine: false },
                Some("fine") => Request::Sweep { fine: true },
                other => {
                    return Err(format!(
                        "SWEEP takes 'coarse' or 'fine', got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "FRONTIER" => Request::Frontier,
            "STATS" => Request::Stats,
            "SNAPSHOT" => Request::Snapshot,
            "SHUTDOWN" => Request::Shutdown,
            other => return Err(format!("unknown request verb '{other}'")),
        };
        if let Some(stray) = fields.next() {
            return Err(format!("unexpected operand '{stray}'"));
        }
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"EVAL 320 1000 3").unwrap();
        write_frame(&mut wire, b"STATS").unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"EVAL 320 1000 3");
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"STATS");
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn buffered_frame_never_blocks() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"A").unwrap();
        write_frame(&mut wire, b"B").unwrap();
        // Feed a reader whose stream would block forever after the
        // initial bytes by pre-loading the buffer via read_frame.
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap().unwrap(), b"A");
        assert_eq!(reader.buffered_frame().unwrap().unwrap(), b"B");
        assert_eq!(reader.buffered_frame().unwrap(), None);
    }

    #[test]
    fn torn_and_malformed_frames_are_errors() {
        let mut reader = FrameReader::new(&b"5\nabc"[..]);
        assert!(reader.read_frame().is_err(), "EOF mid-frame must error");

        let mut reader = FrameReader::new(&b"zz\nabc"[..]);
        assert!(reader.read_frame().is_err(), "non-numeric length");

        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut reader = FrameReader::new(huge.as_bytes());
        assert!(reader.read_frame().is_err(), "oversized frame");
    }

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(
            Request::parse("EVAL 320 1000 3").unwrap(),
            Request::Eval(EvalPoint {
                cus: 320,
                mhz: 1000.0,
                tbps: 3.0
            })
        );
        assert_eq!(
            Request::parse("SWEEP coarse").unwrap(),
            Request::Sweep { fine: false }
        );
        assert_eq!(
            Request::parse("SWEEP fine").unwrap(),
            Request::Sweep { fine: true }
        );
        assert_eq!(Request::parse("FRONTIER").unwrap(), Request::Frontier);
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);

        assert!(Request::parse("EVAL 320 1000")
            .unwrap_err()
            .contains("tbps"));
        assert!(Request::parse("EVAL x 1000 3").unwrap_err().contains("cus"));
        assert!(Request::parse("EVAL 320 inf 3")
            .unwrap_err()
            .contains("finite"));
        assert!(Request::parse("SWEEP medium")
            .unwrap_err()
            .contains("SWEEP"));
        assert!(
            Request::parse("STATS now").unwrap_err().contains("stray")
                || Request::parse("STATS now")
                    .unwrap_err()
                    .contains("unexpected")
        );
        assert!(Request::parse("NOPE").unwrap_err().contains("unknown"));
        assert!(Request::parse("").is_err());
    }
}
