//! Checkpointable state: the [`Snapshot`] capability and its wire codec.
//!
//! Long-horizon streaming runs need to survive interruption and support
//! warm-started what-if forks mid-stream. Every stateful component of
//! the pipeline — online algorithms, the engine's active-request state,
//! summary observers, the demand estimator — implements [`Snapshot`]:
//! serialize the *mutable* state into a [`StateBlob`], restore it into a
//! freshly constructed instance later. Immutable construction inputs
//! (substrate, application catalogue, plan, configuration) are *not*
//! part of a blob: a resume first rebuilds the component from the same
//! deterministic configuration, then restores the blob onto it.
//!
//! The wire format is a deliberately boring little-endian binary
//! encoding ([`StateWriter`] / [`StateReader`]): fixed-width integers,
//! `f64` as IEEE bit patterns (so restored floats are *bit-identical* —
//! the checkpoint/resume guarantee is byte-identical results, not
//! approximately-equal ones), length-prefixed strings, vectors and
//! nested blobs. The vendored `serde` shim derives are inert, so the
//! codec here is the single real serialization path of the workspace;
//! swapping the real `serde` back in does not change it.
//!
//! Determinism contract: a `Snapshot` implementation must serialize
//! unordered containers (hash maps) in a canonical order (sorted by
//! key), so `snapshot → restore → snapshot` is blob-equal — the
//! round-trip property pinned by the checkpoint test battery.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{AppId, ClassId, LinkId, NodeId, RequestId};
use crate::request::Request;

/// An opaque, self-contained serialization of one component's mutable
/// state.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct StateBlob(Vec<u8>);

impl StateBlob {
    /// Wraps raw bytes (e.g. read back from a checkpoint file).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self(bytes)
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the blob into its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for StateBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateBlob({} bytes)", self.0.len())
    }
}

/// The error returned when a blob cannot be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The blob ended before a read completed.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left in the blob.
        remaining: usize,
    },
    /// Bytes were left over after a component finished decoding.
    TrailingBytes {
        /// Leftover byte count.
        remaining: usize,
    },
    /// The blob decoded but its content is inconsistent with the
    /// component it is being restored into.
    Mismatch {
        /// What the restoring component expected.
        expected: String,
        /// What the blob carried.
        found: String,
    },
    /// The component does not support state snapshots.
    Unsupported(String),
    /// Structurally invalid data (bad magic, bad tag, bad UTF-8, …).
    Corrupt(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnexpectedEof { needed, remaining } => write!(
                f,
                "state blob truncated: needed {needed} more bytes, {remaining} remaining"
            ),
            StateError::TrailingBytes { remaining } => {
                write!(f, "state blob has {remaining} trailing bytes")
            }
            StateError::Mismatch { expected, found } => {
                write!(f, "state mismatch: expected {expected}, found {found}")
            }
            StateError::Unsupported(what) => {
                write!(f, "{what} does not support state snapshots")
            }
            StateError::Corrupt(why) => write!(f, "corrupt state blob: {why}"),
        }
    }
}

impl std::error::Error for StateError {}

/// The checkpoint capability: serialize mutable state, restore it into
/// a freshly constructed instance.
///
/// `restore` replaces the receiver's mutable state wholesale; it must
/// validate structural compatibility (dimensions, names) against the
/// receiver's construction-time configuration and leave the receiver
/// untouched on error where practical.
pub trait Snapshot {
    /// Serializes the mutable state.
    fn snapshot(&self) -> StateBlob;

    /// Restores previously snapshotted state.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the blob is malformed or does not
    /// fit this instance's configuration.
    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError>;
}

impl<S: Snapshot + ?Sized> Snapshot for &mut S {
    fn snapshot(&self) -> StateBlob {
        (**self).snapshot()
    }
    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        (**self).restore(blob)
    }
}

/// Append-only encoder producing a [`StateBlob`].
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer already holds `bytes`: a caller that
    /// knows the encoded length allocates once, and the finished blob
    /// carries no spare capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Finishes into a blob.
    pub fn finish(self) -> StateBlob {
        StateBlob(self.buf)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Writes an `f64` as its IEEE bit pattern (bit-exact round-trip).
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn write_bool(&mut self, x: bool) {
        self.write_u8(u8::from(x));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a nested blob with a length prefix (composing snapshots).
    pub fn write_blob(&mut self, blob: &StateBlob) {
        self.write_usize(blob.0.len());
        self.buf.extend_from_slice(&blob.0);
    }

    /// Encodes any [`StateEncode`] value.
    pub fn write<T: StateEncode + ?Sized>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Encodes a sequence with a length prefix.
    pub fn write_seq<'a, T: StateEncode + 'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a T>,
    ) {
        self.write_usize(items.len());
        for item in items {
            item.encode(self);
        }
    }
}

/// Cursor decoding a [`StateBlob`].
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over one blob.
    pub fn new(blob: &'a StateBlob) -> Self {
        Self {
            buf: &blob.0,
            pos: 0,
        }
    }

    /// A reader over raw bytes (checkpoint file parsing).
    pub fn from_bytes(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the blob was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::TrailingBytes`] when bytes are left over.
    pub fn finish(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u64`-encoded `usize`.
    pub fn read_usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.read_u64()?)
            .map_err(|_| StateError::Corrupt("usize out of range".into()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a bool.
    pub fn read_bool(&mut self) -> Result<bool, StateError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StateError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, StateError> {
        let len = self.read_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StateError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Reads a length-prefixed nested blob.
    pub fn read_blob(&mut self) -> Result<StateBlob, StateError> {
        let len = self.read_usize()?;
        Ok(StateBlob(self.take(len)?.to_vec()))
    }

    /// Decodes any [`StateDecode`] value.
    pub fn read<T: StateDecode>(&mut self) -> Result<T, StateError> {
        T::decode(self)
    }

    /// Decodes a length-prefixed sequence.
    pub fn read_seq<T: StateDecode>(&mut self) -> Result<Vec<T>, StateError> {
        let len = self.read_usize()?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// Value types with a canonical state encoding.
pub trait StateEncode {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut StateWriter);
}

/// Value types decodable from their [`StateEncode`] encoding.
pub trait StateDecode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on malformed input.
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError>;
}

macro_rules! primitive_codec {
    ($($t:ty => $w:ident / $r:ident),* $(,)?) => {$(
        impl StateEncode for $t {
            fn encode(&self, w: &mut StateWriter) {
                w.$w(*self);
            }
        }
        impl StateDecode for $t {
            fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
                r.$r()
            }
        }
    )*};
}

primitive_codec!(
    u8 => write_u8 / read_u8,
    u32 => write_u32 / read_u32,
    u64 => write_u64 / read_u64,
    usize => write_usize / read_usize,
    f64 => write_f64 / read_f64,
    bool => write_bool / read_bool,
);

impl StateEncode for str {
    fn encode(&self, w: &mut StateWriter) {
        w.write_str(self);
    }
}

impl StateEncode for String {
    fn encode(&self, w: &mut StateWriter) {
        w.write_str(self);
    }
}

impl StateDecode for String {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.read_str()
    }
}

impl StateEncode for StateBlob {
    fn encode(&self, w: &mut StateWriter) {
        w.write_blob(self);
    }
}

impl StateDecode for StateBlob {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.read_blob()
    }
}

macro_rules! id_codec {
    ($($t:ty: $repr:ty),* $(,)?) => {$(
        impl StateEncode for $t {
            fn encode(&self, w: &mut StateWriter) {
                w.write_u64(u64::from(self.0));
            }
        }
        impl StateDecode for $t {
            fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
                let raw = r.read_u64()?;
                <$repr>::try_from(raw)
                    .map(Self)
                    .map_err(|_| StateError::Corrupt(format!(
                        "id {raw} out of range for {}", stringify!($t)
                    )))
            }
        }
    )*};
}

id_codec!(NodeId: u32, LinkId: u32, AppId: u32, RequestId: u64);

impl StateEncode for ClassId {
    fn encode(&self, w: &mut StateWriter) {
        w.write(&self.app);
        w.write(&self.ingress);
    }
}

impl StateDecode for ClassId {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            app: r.read()?,
            ingress: r.read()?,
        })
    }
}

impl StateEncode for Request {
    fn encode(&self, w: &mut StateWriter) {
        w.write(&self.id);
        w.write_u32(self.arrival);
        w.write_u32(self.duration);
        w.write(&self.ingress);
        w.write(&self.app);
        w.write_f64(self.demand);
    }
}

impl StateDecode for Request {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            id: r.read()?,
            arrival: r.read_u32()?,
            duration: r.read_u32()?,
            ingress: r.read()?,
            app: r.read()?,
            demand: r.read_f64()?,
        })
    }
}

impl StateEncode for crate::embedding::Footprint {
    fn encode(&self, w: &mut StateWriter) {
        w.write_seq(self.nodes().iter());
        w.write_seq(self.links().iter());
    }
}

impl StateDecode for crate::embedding::Footprint {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let nodes: Vec<(NodeId, f64)> = r.read_seq()?;
        let links: Vec<(LinkId, f64)> = r.read_seq()?;
        // Entries were consolidated + sorted at snapshot time, so
        // `from_parts` is the identity on them — exact round-trip.
        Ok(Self::from_parts(nodes, links))
    }
}

impl StateEncode for crate::embedding::Embedding {
    fn encode(&self, w: &mut StateWriter) {
        w.write_seq(self.node_map().iter());
        w.write_usize(self.link_paths().len());
        for path in self.link_paths() {
            w.write_seq(path.iter());
        }
    }
}

impl StateDecode for crate::embedding::Embedding {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let node_map: Vec<NodeId> = r.read_seq()?;
        let paths = r.read_usize()?;
        let mut link_paths = Vec::with_capacity(paths.min(1 << 20));
        for _ in 0..paths {
            link_paths.push(r.read_seq()?);
        }
        Ok(Self::new(node_map, link_paths))
    }
}

impl<A: StateEncode, B: StateEncode> StateEncode for (A, B) {
    fn encode(&self, w: &mut StateWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: StateDecode, B: StateDecode> StateDecode for (A, B) {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: StateEncode> StateEncode for Vec<T> {
    fn encode(&self, w: &mut StateWriter) {
        w.write_seq(self.iter());
    }
}

impl<T: StateDecode> StateDecode for Vec<T> {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.read_seq()
    }
}

impl<T: StateEncode> StateEncode for Option<T> {
    fn encode(&self, w: &mut StateWriter) {
        match self {
            None => w.write_bool(false),
            Some(v) => {
                w.write_bool(true);
                v.encode(w);
            }
        }
    }
}

impl<T: StateDecode> StateDecode for Option<T> {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(if r.read_bool()? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

// BTreeMaps iterate in key order, so the encoding is canonical as-is.
impl<K: StateEncode, V: StateEncode> StateEncode for BTreeMap<K, V> {
    fn encode(&self, w: &mut StateWriter) {
        w.write_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: StateDecode + Ord, V: StateDecode> StateDecode for BTreeMap<K, V> {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let len = r.read_usize()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{Embedding, Footprint};

    #[test]
    fn primitives_roundtrip() {
        let mut w = StateWriter::new();
        w.write_u8(7);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX);
        w.write_f64(-0.0);
        w.write_f64(f64::NAN);
        w.write_bool(true);
        w.write_str("hello κόσμε");
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_str().unwrap(), "hello κόσμε");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = StateWriter::new();
        w.write_u32(1);
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert!(matches!(
            r.read_u64(),
            Err(StateError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut w = StateWriter::new();
        w.write_u32(1);
        let blob = w.finish();
        let r = StateReader::new(&blob);
        assert_eq!(r.finish(), Err(StateError::TrailingBytes { remaining: 4 }));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let blob = StateBlob::from_bytes(vec![9]);
        let mut r = StateReader::new(&blob);
        assert!(matches!(r.read_bool(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn ids_and_requests_roundtrip() {
        let req = Request {
            id: RequestId(42),
            arrival: 3,
            duration: 9,
            ingress: NodeId(4),
            app: AppId(1),
            demand: 2.75,
        };
        let mut w = StateWriter::new();
        w.write(&req);
        w.write(&req.class());
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.read::<Request>().unwrap(), req);
        assert_eq!(r.read::<ClassId>().unwrap(), req.class());
        r.finish().unwrap();
    }

    #[test]
    fn oversized_id_is_corrupt() {
        let mut w = StateWriter::new();
        w.write_u64(u64::from(u32::MAX) + 1);
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert!(matches!(r.read::<NodeId>(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(RequestId, f64)> = vec![(RequestId(1), 0.5), (RequestId(2), -1.0)];
        let mut m: BTreeMap<ClassId, Vec<f64>> = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(1)), vec![1.0, 2.0]);
        m.insert(ClassId::new(AppId(2), NodeId(0)), vec![]);
        let opt: Option<u64> = Some(7);
        let mut w = StateWriter::new();
        w.write(&v);
        w.write(&m);
        w.write(&opt);
        w.write(&Option::<u64>::None);
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.read::<Vec<(RequestId, f64)>>().unwrap(), v);
        assert_eq!(r.read::<BTreeMap<ClassId, Vec<f64>>>().unwrap(), m);
        assert_eq!(r.read::<Option<u64>>().unwrap(), opt);
        assert_eq!(r.read::<Option<u64>>().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn footprint_and_embedding_roundtrip() {
        let fp = Footprint::from_parts(
            vec![(NodeId(2), 1.5), (NodeId(0), 3.0)],
            vec![(LinkId(1), 0.25)],
        );
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(2)],
            vec![vec![LinkId(0), LinkId(1)], vec![]],
        );
        let mut w = StateWriter::new();
        w.write(&fp);
        w.write(&emb);
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.read::<Footprint>().unwrap(), fp);
        assert_eq!(r.read::<Embedding>().unwrap(), emb);
        r.finish().unwrap();
    }

    #[test]
    fn nested_blobs_roundtrip() {
        let mut inner = StateWriter::new();
        inner.write_u64(99);
        let inner = inner.finish();
        let mut w = StateWriter::new();
        w.write_blob(&inner);
        w.write_blob(&StateBlob::default());
        let blob = w.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.read_blob().unwrap(), inner);
        assert!(r.read_blob().unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn mut_ref_snapshot_forwards() {
        struct Counter(u64);
        impl Snapshot for Counter {
            fn snapshot(&self) -> StateBlob {
                let mut w = StateWriter::new();
                w.write_u64(self.0);
                w.finish()
            }
            fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
                let mut r = StateReader::new(blob);
                self.0 = r.read_u64()?;
                r.finish()
            }
        }
        let mut c = Counter(5);
        let blob = {
            let r: &mut Counter = &mut c;
            r.snapshot()
        };
        let mut d = Counter(0);
        let mut dref: &mut Counter = &mut d;
        // Call through the forwarding impl explicitly.
        Snapshot::restore(&mut dref, &blob).unwrap();
        assert_eq!(d.0, 5);
    }
}
