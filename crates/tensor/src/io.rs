//! Serialization of tensors and packed weights.
//!
//! BitFlow is a stand-alone engine; models are stored in a simple
//! self-describing binary container (magic + JSON-serializable header +
//! raw little-endian payload) built on `serde` + `bytes`. This is enough to
//! persist trained weights from `bitflow-train` and reload them into the
//! inference engine, and to measure on-disk model size for Table V.

use crate::shape::{Layout, Shape};
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Container magic: "BTFL".
pub const MAGIC: u32 = 0x4254_464C;

/// Header describing one serialized tensor.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorHeader {
    /// Logical shape.
    pub shape: Shape,
    /// Memory layout of the payload.
    pub layout: Layout,
    /// Element kind of the payload.
    pub dtype: DType,
}

/// Payload element type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit float payload.
    F32,
    /// Packed 64-bit word payload (pressed tensors).
    U64,
}

/// Errors from decoding a tensor container.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Bad magic number.
    BadMagic,
    /// Header did not parse.
    BadHeader,
    /// Payload shorter than the header promises.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic (not a BitFlow tensor)"),
            DecodeError::BadHeader => write!(f, "malformed tensor header"),
            DecodeError::Truncated => write!(f, "payload truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a float tensor into the container format.
pub fn encode_tensor(t: &Tensor) -> Bytes {
    let header = TensorHeader {
        shape: t.shape(),
        layout: t.layout(),
        dtype: DType::F32,
    };
    let header_json = serde_json::to_vec(&header).expect("header serializes");
    let mut buf = BytesMut::with_capacity(12 + header_json.len() + t.data().len() * 4);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(header_json.len() as u32);
    buf.put_slice(&header_json);
    for &x in t.data() {
        buf.put_f32_le(x);
    }
    buf.freeze()
}

/// Reads a header spelled exactly as [`encode_tensor`] spells it —
/// `{"shape":{"n":1,"h":32,"w":32,"c":3},"layout":"Nhwc","dtype":"F32"}`
/// — without building a JSON tree. `None` for any other spelling, which
/// the caller hands to the JSON parser: this is the shortcut for the bytes
/// every encoder-built request carries (11 allocations otherwise, on a
/// served request that makes a handful), not a second grammar.
fn canonical_header(json: &[u8]) -> Option<TensorHeader> {
    fn dim<'a>(s: &'a str, key: &str) -> Option<(usize, &'a str)> {
        let s = s.strip_prefix(key)?;
        let digits = s.bytes().take_while(u8::is_ascii_digit).count();
        // As JSON spells a number: no empty one, no leading zero.
        if digits == 0 || (digits > 1 && s.starts_with('0')) {
            return None;
        }
        Some((s[..digits].parse().ok()?, &s[digits..]))
    }
    let s = std::str::from_utf8(json).ok()?;
    let (n, s) = dim(s, "{\"shape\":{\"n\":")?;
    let (h, s) = dim(s, ",\"h\":")?;
    let (w, s) = dim(s, ",\"w\":")?;
    let (c, s) = dim(s, ",\"c\":")?;
    let s = s.strip_prefix("},\"layout\":\"")?;
    let (layout, s) = [("Nhwc\"", Layout::Nhwc), ("Nchw\"", Layout::Nchw)]
        .into_iter()
        .find_map(|(name, layout)| Some((layout, s.strip_prefix(name)?)))?;
    let s = s.strip_prefix(",\"dtype\":\"")?;
    let (dtype, s) = [("F32\"", DType::F32), ("U64\"", DType::U64)]
        .into_iter()
        .find_map(|(name, dtype)| Some((dtype, s.strip_prefix(name)?)))?;
    (s == "}").then_some(TensorHeader {
        shape: Shape::new(n, h, w, c),
        layout,
        dtype,
    })
}

/// Deserializes a float tensor from the container format.
pub fn decode_tensor(mut data: &[u8]) -> Result<Tensor, DecodeError> {
    if data.remaining() < 8 || data.get_u32_le() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let hlen = data.get_u32_le() as usize;
    if data.remaining() < hlen {
        return Err(DecodeError::Truncated);
    }
    let header = match canonical_header(&data[..hlen]) {
        Some(header) => header,
        None => serde_json::from_slice(&data[..hlen]).map_err(|_| DecodeError::BadHeader)?,
    };
    data.advance(hlen);
    if header.dtype != DType::F32 {
        return Err(DecodeError::BadHeader);
    }
    // Checked arithmetic: a hostile header can declare dimensions whose
    // product overflows, and the element count must never exceed what the
    // payload actually carries.
    let s = header.shape;
    let n =
        s.n.checked_mul(s.h)
            .and_then(|v| v.checked_mul(s.w))
            .and_then(|v| v.checked_mul(s.c))
            .ok_or(DecodeError::BadHeader)?;
    let payload_len = n.checked_mul(4).ok_or(DecodeError::BadHeader)?;
    if data.remaining() < payload_len {
        return Err(DecodeError::Truncated);
    }
    // Straight into the tensor's own (aligned) storage: one allocation,
    // no staging vector.
    let mut tensor = Tensor::zeros(header.shape, header.layout);
    for (value, bytes) in tensor.data_mut().iter_mut().zip(data.chunks_exact(4)) {
        *value = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    Ok(tensor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor::random(Shape::new(1, 3, 4, 5), Layout::Nhwc, &mut rng);
        let bytes = encode_tensor(&t);
        let back = decode_tensor(&bytes).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.layout(), t.layout());
        assert_eq!(back.max_abs_diff(&t), 0.0);
    }

    #[test]
    fn canonical_header_agrees_with_the_json_parser() {
        // Whatever the encoder writes is read by the shortcut, to the
        // same header the JSON parser reads.
        for (shape, layout, dtype) in [
            (Shape::new(1, 32, 32, 3), Layout::Nhwc, DType::F32),
            (Shape::new(0, 1, 10, 4096), Layout::Nchw, DType::U64),
            (Shape::new(usize::MAX, 7, 0, 12), Layout::Nhwc, DType::F32),
        ] {
            let header = TensorHeader {
                shape,
                layout,
                dtype,
            };
            let json = serde_json::to_vec(&header).unwrap();
            assert_eq!(canonical_header(&json), Some(header.clone()));
            assert_eq!(
                serde_json::from_slice::<TensorHeader>(&json).unwrap(),
                header
            );
        }
        // Any other spelling is left to the JSON parser, which decides.
        for other in [
            &br#"{ "shape":{"n":1,"h":2,"w":3,"c":4},"layout":"Nhwc","dtype":"F32"}"#[..],
            br#"{"layout":"Nhwc","shape":{"n":1,"h":2,"w":3,"c":4},"dtype":"F32"}"#,
            br#"{"shape":{"n":01,"h":2,"w":3,"c":4},"layout":"Nhwc","dtype":"F32"}"#,
            br#"{"shape":{"n":,"h":2,"w":3,"c":4},"layout":"Nhwc","dtype":"F32"}"#,
            br#"{"shape":{"n":1,"h":2,"w":3,"c":4},"layout":"Nhwc","dtype":"F32"} "#,
            br#"{"shape":{"n":99999999999999999999999,"h":2,"w":3,"c":4},"layout":"Nhwc","dtype":"F32"}"#,
            b"oops",
        ] {
            assert_eq!(canonical_header(other), None);
        }
        // ... and a reordered, spaced-out header still decodes.
        let mut buf = BytesMut::new();
        let header = br#"{ "dtype":"F32", "layout":"Nhwc", "shape":{"n":1,"h":1,"w":1,"c":1} }"#;
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(header.len() as u32);
        buf.put_slice(header);
        buf.put_f32_le(2.5);
        assert_eq!(decode_tensor(&buf).unwrap().data(), &[2.5]);
    }

    #[test]
    fn rejects_bad_magic() {
        let t = Tensor::zeros(Shape::vec(4), Layout::Nhwc);
        let mut bytes = encode_tensor(&t).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_tensor(&bytes), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn rejects_truncation() {
        let t = Tensor::zeros(Shape::vec(100), Layout::Nhwc);
        let bytes = encode_tensor(&t);
        let cut = &bytes[..bytes.len() - 10];
        assert!(matches!(decode_tensor(cut), Err(DecodeError::Truncated)));
    }

    #[test]
    fn rejects_overflowing_shape_without_panicking() {
        // A hostile header declaring dimensions whose product overflows
        // usize must come back as a typed error, not an arithmetic panic.
        let header = format!(
            "{{\"shape\":{{\"n\":{0},\"h\":{0},\"w\":{0},\"c\":{0}}},\"layout\":\"Nhwc\",\"dtype\":\"F32\"}}",
            usize::MAX
        );
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(header.len() as u32);
        buf.put_slice(header.as_bytes());
        assert!(matches!(decode_tensor(&buf), Err(DecodeError::BadHeader)));
    }

    #[test]
    fn rejects_garbage_header() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(4);
        buf.put_slice(b"oops");
        assert!(matches!(decode_tensor(&buf), Err(DecodeError::BadHeader)));
    }
}
