//! Streaming frame I/O over any `Read`/`Write` pair.
//!
//! The reader validates the header — magic, version, and the
//! [`MAX_BODY`] cap — *before* allocating or reading a single body
//! byte, so a hostile peer claiming a 4 GiB body costs one typed error,
//! not an allocation. The checksum is verified over exactly the bytes
//! received, catching both corruption and desynchronization.

use std::io::{self, Read, Write};

use crate::proto::{
    checksum, speaks, Frame, ProtoError, CHECKSUM_LEN, HEADER_LEN, MAGIC, MAX_BODY,
    PROTOCOL_VERSION,
};

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ProtoError {
    move |e| ProtoError::Io {
        kind: e.kind(),
        context,
    }
}

/// Write one complete frame at [`PROTOCOL_VERSION`] and flush.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    write_frame_versioned(w, frame, PROTOCOL_VERSION)
}

/// Write one complete frame at protocol `version` and flush.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_frame_versioned<W: Write>(
    w: &mut W,
    frame: &Frame,
    version: u8,
) -> Result<(), ProtoError> {
    w.write_all(&frame.encode_version(version))
        .map_err(io_err("write frame"))?;
    w.flush().map_err(io_err("flush frame"))
}

/// Read one complete frame of any version this build speaks.
///
/// A clean close (EOF before the first header byte) returns
/// [`ProtoError::Closed`]; EOF anywhere inside a frame is an
/// [`ProtoError::Io`] with `UnexpectedEof` — the distinction lets a
/// server tell "client finished" from "client died mid-payload".
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    read_frame_versioned(r).map(|(frame, _)| frame)
}

/// [`read_frame`], also returning the frame's protocol version so a
/// server can answer in it.
pub fn read_frame_versioned<R: Read>(r: &mut R) -> Result<(Frame, u8), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: 0 bytes here is a clean between-frames close.
    let got = r.read(&mut header[..1]).map_err(io_err("read header"))?;
    if got == 0 {
        return Err(ProtoError::Closed);
    }
    r.read_exact(&mut header[1..])
        .map_err(io_err("read header"))?;

    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = header[4];
    if !speaks(version) {
        return Err(ProtoError::BadVersion { got: version });
    }
    let kind = header[5];
    let body_len = u32::from_le_bytes(header[6..10].try_into().unwrap()) as usize;
    if body_len > MAX_BODY {
        // Refused before any body allocation or read.
        return Err(ProtoError::Oversized {
            len: body_len as u64,
            max: MAX_BODY as u64,
        });
    }

    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(io_err("read body"))?;
    let mut sum = [0u8; CHECKSUM_LEN];
    r.read_exact(&mut sum).map_err(io_err("read checksum"))?;

    let stored = u64::from_le_bytes(sum);
    let computed = checksum(version, &header, &body);
    if stored != computed {
        return Err(ProtoError::ChecksumMismatch { stored, computed });
    }
    Ok((Frame::decode_body(kind, &body)?, version))
}
