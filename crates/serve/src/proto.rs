//! The wire protocol: length-prefixed JSON frames, read with the shared
//! field readers of [`hetsched_util::json`].
//!
//! Every message — request or reply — is one UTF-8 JSON object, prefixed
//! by its byte length as a big-endian `u32`. The framing keeps the stream
//! trivially parseable without a streaming JSON reader; the payloads are
//! small, flat objects assembled by hand (the workspace vendors no JSON
//! crate, matching the provenance manifests).

pub use hetsched_util::json::{f64_field, str_field, u64_field};
use std::io::{self, Read, Write};

/// Upper bound on a frame's payload, to fail fast on corrupt prefixes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes `payload` as one length-prefixed frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF before the length
/// prefix (the peer hung up between messages).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, r#"{"cmd":"status"}"#).unwrap();
        write_frame(&mut buf, r#"{"ok":true}"#).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), r#"{"cmd":"status"}"#);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), r#"{"ok":true}"#);
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend((MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
