//! Wire format shared by every transport backend.
//!
//! Reuses the WAL's framing discipline (`[u32 len][u32 crc][payload]`,
//! big-endian, CRC-32 of the payload — [`ahl_wal::codec`]): the length
//! prefix delimits frames on the stream and the CRC rejects torn or
//! corrupted bytes, exactly as it does for on-disk records. Inside a
//! frame the payload is
//!
//! ```text
//! [kind u8][from u64][to u64][body ...]
//! ```
//!
//! so one OS process can host several logical actors (a driver hosting k
//! clients, a replica hosting one node) behind a single socket. `kind`
//! separates application messages from the session handshake and the
//! small control plane (status / shutdown).

use ahl_crypto::Hash;
use ahl_simkit::NodeId;
use ahl_wal::codec::{Reader, Writer};

/// Protocol version carried in the session handshake. Bump on any frame
/// or codec layout change; mismatched peers refuse the session instead
/// of mis-parsing each other.
pub const WIRE_VERSION: u16 = 1;

/// Handshake magic: "AHL1" big-endian.
pub const WIRE_MAGIC: u32 = 0x4148_4C31;

/// Byte the acceptor writes back after validating a [`Hello`]; the dialer
/// waits for it before streaming frames.
pub const HELLO_ACK: u8 = 0xA5;

/// Frame kind: application message (body = `M` via [`Wire`]).
pub const FRAME_APP: u8 = 0;
/// Frame kind: session handshake (body = [`Hello`]); first frame on a
/// stream, never repeated.
pub const FRAME_HELLO: u8 = 1;
/// Frame kind: control-plane message (body = [`Control`]).
pub const FRAME_CONTROL: u8 = 2;

/// Hand-rolled binary serialization for a message type, in the style of
/// `ledger::persist`: fixed-width big-endian integers and length-prefixed
/// byte strings over the WAL's [`Writer`]/[`Reader`] pair. `decode` must
/// fail closed (return `None`) on any truncation or unknown tag.
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from `r`, or `None` if the bytes are malformed.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;

    /// Encode into a fresh byte vector.
    fn to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode from a byte slice, requiring every byte to be consumed.
    fn from_slice(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.is_done().then_some(v)
    }
}

/// Session handshake, sent as the first frame on every connection. The
/// acceptor validates magic, version, and cluster digest before acking;
/// anything else is a handshake failure and the connection is refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version of the dialer ([`WIRE_VERSION`]).
    pub version: u16,
    /// The dialer's primary node id (lowest actor id it hosts).
    pub sender: NodeId,
    /// Digest identifying the cluster/genesis both sides must share;
    /// prevents two different deployments from cross-talking.
    pub cluster: Hash,
}

impl Wire for Hello {
    fn encode(&self, w: &mut Writer) {
        w.u32(WIRE_MAGIC);
        w.u16(self.version);
        w.u64(self.sender as u64);
        w.hash(&self.cluster);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        if r.u32()? != WIRE_MAGIC {
            return None;
        }
        Some(Hello {
            version: r.u16()?,
            sender: r.u64()? as NodeId,
            cluster: r.hash()?,
        })
    }
}

/// Control-plane messages exchanged beside the consensus traffic: the
/// cluster driver uses them to probe replica state and to stop nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Ask the receiving process to report its primary actor's state.
    Status,
    /// Answer to [`Control::Status`].
    StatusReply {
        /// Highest executed sequence/height of the primary actor.
        height: u64,
        /// State digest at that height.
        digest: Hash,
        /// Transactions committed so far (monotone counter).
        committed: u64,
    },
    /// Ask the receiving process to shut down cleanly.
    Shutdown,
}

impl Wire for Control {
    fn encode(&self, w: &mut Writer) {
        match self {
            Control::Status => w.u8(0),
            Control::StatusReply { height, digest, committed } => {
                w.u8(1);
                w.u64(*height);
                w.hash(digest);
                w.u64(*committed);
            }
            Control::Shutdown => w.u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Control::Status),
            1 => Some(Control::StatusReply {
                height: r.u64()?,
                digest: r.hash()?,
                committed: r.u64()?,
            }),
            2 => Some(Control::Shutdown),
            _ => None,
        }
    }
}

/// Either half of a transport payload: a consensus/application message or
/// a control-plane message.
#[derive(Clone, Debug)]
pub enum Packet<M> {
    /// An application message (the actor's `Msg` type).
    App(M),
    /// A control-plane message.
    Control(Control),
}

/// Encode one complete frame payload (`[kind][from][to][body]`).
pub fn encode_payload<M: Wire>(from: NodeId, to: NodeId, pkt: &Packet<M>) -> Vec<u8> {
    let mut w = Writer::new();
    write_payload(&mut w, from, to, pkt);
    w.into_bytes()
}

/// Append the [`encode_payload`] bytes to `w` (the transport frames them
/// in place, behind a header it fills in afterwards).
pub(crate) fn write_payload<M: Wire>(w: &mut Writer, from: NodeId, to: NodeId, pkt: &Packet<M>) {
    match pkt {
        Packet::App(m) => {
            w.u8(FRAME_APP);
            w.u64(from as u64);
            w.u64(to as u64);
            m.encode(w);
        }
        Packet::Control(c) => {
            w.u8(FRAME_CONTROL);
            w.u64(from as u64);
            w.u64(to as u64);
            c.encode(w);
        }
    }
}

/// Decode a frame payload produced by [`encode_payload`]. Returns
/// `(from, to, packet)`, or `None` for malformed bytes or a non-routable
/// kind (hello frames are handled during the handshake, not here).
pub fn decode_payload<M: Wire>(bytes: &[u8]) -> Option<(NodeId, NodeId, Packet<M>)> {
    let mut r = Reader::new(bytes);
    let kind = r.u8()?;
    let from = r.u64()? as NodeId;
    let to = r.u64()? as NodeId;
    let pkt = match kind {
        FRAME_APP => Packet::App(M::decode(&mut r)?),
        FRAME_CONTROL => Packet::Control(Control::decode(&mut r)?),
        _ => return None,
    };
    r.is_done().then_some((from, to, pkt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Probe(u64, String);

    impl Wire for Probe {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.0);
            w.str(&self.1);
        }
        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            Some(Probe(r.u64()?, r.str()?))
        }
    }

    #[test]
    fn hello_roundtrip() {
        let h = Hello { version: WIRE_VERSION, sender: 3, cluster: ahl_crypto::sha256(b"g") };
        assert_eq!(Hello::from_slice(&h.to_vec()), Some(h));
    }

    #[test]
    fn hello_rejects_bad_magic() {
        let h = Hello { version: WIRE_VERSION, sender: 0, cluster: Hash::ZERO };
        let mut bytes = h.to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(Hello::from_slice(&bytes), None);
    }

    #[test]
    fn control_roundtrip() {
        let msgs = [
            Control::Status,
            Control::StatusReply {
                height: 17,
                digest: ahl_crypto::sha256(b"s"),
                committed: 4242,
            },
            Control::Shutdown,
        ];
        for m in msgs {
            assert_eq!(Control::from_slice(&m.to_vec()), Some(m));
        }
    }

    #[test]
    fn payload_roundtrip_and_trailing_bytes_rejected() {
        let pkt = Packet::App(Probe(9, "hi".into()));
        let bytes = encode_payload(2, 5, &pkt);
        let (from, to, got) = decode_payload::<Probe>(&bytes).expect("decodes");
        assert_eq!((from, to), (2, 5));
        match got {
            Packet::App(p) => assert_eq!(p, Probe(9, "hi".into())),
            _ => panic!("wrong kind"),
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_payload::<Probe>(&long).is_none(), "trailing byte");
        assert!(decode_payload::<Probe>(&bytes[..bytes.len() - 1]).is_none(), "truncated");
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut w = Writer::new();
        w.u8(9);
        w.u64(0);
        w.u64(1);
        assert!(decode_payload::<Probe>(&w.into_bytes()).is_none());
    }
}
