//! The replication wire protocol.
//!
//! One [`Frame`] per transport message. The two bulk payloads — shipped
//! WAL segments and checkpoint transfers — are the already-validated,
//! epoch-stamped envelopes from [`nebula_durable::segment`]; this layer
//! only adds a kind tag and the small control frames (ack, nack, fence).
//!
//! Every control frame carries the sender's **epoch** so receivers can
//! fence stale senders without decoding a payload.

use crate::ReplicaError;
use nebula_codec::{Reader, Writer};

/// One replication message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A shipped WAL segment (`NEBSEG01` bytes; decode with
    /// [`nebula_durable::segment::decode_segment`]).
    Segment(Vec<u8>),
    /// A checkpoint transfer (`NEBSCP01` bytes; decode with
    /// [`nebula_durable::segment::decode_checkpoint_frame`]).
    Checkpoint(Vec<u8>),
    /// Wedge the receiver: it diverged or belongs to a deposed epoch.
    Fence {
        /// The sender's epoch.
        epoch: u64,
        /// Human-readable cause, kept for the wedge report.
        reason: String,
    },
    /// A replica's progress report: everything up to `lsn` is applied and
    /// the replica's state digest at that point is `digest`.
    Ack {
        /// The replica's current epoch.
        epoch: u64,
        /// Highest contiguously applied LSN.
        lsn: u64,
        /// `nebula_durable::state_digest` of the replica state at `lsn`.
        digest: (u32, u32),
    },
    /// An epoch rejection: the receiver holds `epoch` (newer than the
    /// sender's) and has applied up to `lsn`. A primary receiving this
    /// learns it was deposed.
    Nack {
        /// The rejecting node's (newer) epoch.
        epoch: u64,
        /// The rejecting node's applied LSN.
        lsn: u64,
    },
}

const KIND_SEGMENT: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;
const KIND_FENCE: u8 = 3;
const KIND_ACK: u8 = 4;
const KIND_NACK: u8 = 5;

impl Frame {
    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Frame::Segment(bytes) => {
                w.u8(KIND_SEGMENT);
                w.bytes(bytes);
            }
            Frame::Checkpoint(bytes) => {
                w.u8(KIND_CHECKPOINT);
                w.bytes(bytes);
            }
            Frame::Fence { epoch, reason } => {
                w.u8(KIND_FENCE);
                w.u64(*epoch);
                w.bytes(reason.as_bytes());
            }
            Frame::Ack { epoch, lsn, digest } => {
                w.u8(KIND_ACK);
                w.u64(*epoch);
                w.u64(*lsn);
                w.u32(digest.0);
                w.u32(digest.1);
            }
            Frame::Nack { epoch, lsn } => {
                w.u8(KIND_NACK);
                w.u64(*epoch);
                w.u64(*lsn);
            }
        }
        w.0
    }

    /// Deserialize from the wire. The three variable-length kinds run to
    /// the end of the message; the fixed-size control frames must end
    /// exactly where their last field does.
    pub fn decode(bytes: &[u8]) -> Result<Frame, ReplicaError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8("frame kind")? {
            KIND_SEGMENT => Frame::Segment(r.rest().to_vec()),
            KIND_CHECKPOINT => Frame::Checkpoint(r.rest().to_vec()),
            KIND_FENCE => Frame::Fence {
                epoch: r.u64("fence epoch")?,
                reason: String::from_utf8_lossy(r.rest()).into_owned(),
            },
            KIND_ACK => Frame::Ack {
                epoch: r.u64("ack epoch")?,
                lsn: r.u64("ack lsn")?,
                digest: (r.u32("ack digest")?, r.u32("ack digest")?),
            },
            KIND_NACK => Frame::Nack { epoch: r.u64("nack epoch")?, lsn: r.u64("nack lsn")? },
            other => return Err(ReplicaError::Codec(format!("unknown frame kind {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_roundtrips() {
        let frames = vec![
            Frame::Segment(vec![9, 8, 7]),
            Frame::Checkpoint(vec![1, 2]),
            Frame::Fence { epoch: 3, reason: "diverged at lsn 7".into() },
            Frame::Ack { epoch: 2, lsn: 41, digest: (0xDEAD, 0xBEEF) },
            Frame::Nack { epoch: 5, lsn: 40 },
        ];
        for f in frames {
            assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[42]).is_err());
        assert!(Frame::decode(&[KIND_ACK, 1, 2]).is_err());
        // A fixed-size control frame ends where its last field does.
        for frame in [
            Frame::Ack { epoch: 2, lsn: 41, digest: (0xDEAD, 0xBEEF) },
            Frame::Nack { epoch: 5, lsn: 40 },
        ] {
            let mut over_long = frame.encode();
            over_long.push(0);
            assert!(matches!(Frame::decode(&over_long), Err(ReplicaError::Codec(_))), "{frame:?}");
        }
    }
}
