//! The shard wire protocol: length-free kind-byte frames, little-endian
//! throughout, modeled on `nebula-replica`'s [`Frame`](nebula_replica::Frame).
//!
//! Two exchanges share the fabric:
//!
//! - **Scatter-gather** — `Probe` fans a query group out to every
//!   sibling; each answers with a `ProbeReply` carrying only the hits it
//!   *owns* (its hash slots). Replies are matched by `probe_id`; stale
//!   replies from an earlier scatter are dropped on the floor.
//! - **Boundary-edge exchange** — `Apply` ships one committed mutation
//!   batch (concatenated WAL records) to a sibling, which answers
//!   `ApplyAck` (with its post-apply store digest, feeding divergence
//!   detection) or `ApplyNack` (naming the sequence it has actually
//!   applied through, so the origin can resend the gap).
//!
//! Every frame carries the sender's fencing epoch where it matters:
//! frames minted before a failover promote are silently discarded by
//! receivers on the new epoch.

use nebula_codec::{CodecError, Reader, Writer};
use textsearch::{ExecutionMode, KeywordQuery, SearchHit};

/// Decode failure: a frame that is truncated, of unknown kind, or
/// structurally implausible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad shard frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> FrameError {
        FrameError(e.to_string())
    }
}

/// One shard-to-shard message.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFrame {
    /// Scatter: run this query group over your owned slots and reply.
    Probe {
        /// Correlates replies with one scatter round.
        probe_id: u64,
        /// The home shard awaiting replies.
        origin: usize,
        /// Sender's fencing epoch.
        epoch: u64,
        /// Requested execution mode (isolated or shared).
        mode: ExecutionMode,
        /// The query group (one annotation's generated queries).
        queries: Vec<KeywordQuery>,
    },
    /// Gather: one sibling's owned-slot hits for a probe.
    ProbeReply {
        /// The probe being answered.
        probe_id: u64,
        /// The answering shard.
        shard: usize,
        /// `false` when serving failed (injected fault or budget trip);
        /// `groups` is empty then and the home counts the shard missing.
        ok: bool,
        /// One hit list per query, filtered to the answerer's owned slots.
        groups: Vec<Vec<SearchHit>>,
    },
    /// Boundary-edge exchange: one committed mutation batch.
    Apply {
        /// Global batch sequence number (1-based).
        seq: u64,
        /// The shard that originated (processed) the batch.
        origin: usize,
        /// Sender's fencing epoch.
        epoch: u64,
        /// Did the originating pipeline run to completion? A batch from
        /// an erroring pipeline replays its ops but must not advance the
        /// ACG stability window.
        completed: bool,
        /// Concatenated WAL records ([`nebula_durable::encode_record`]).
        ops: Vec<u8>,
    },
    /// Batch `seq` applied; `digest` is the replica's post-apply store
    /// digest for divergence detection.
    ApplyAck {
        /// Acked sequence.
        seq: u64,
        /// Acking shard.
        shard: usize,
        /// FNV-1a digest of the acking shard's annotation store.
        digest: u64,
    },
    /// Batch `seq` refused (gap or injected apply fault); the sender has
    /// applied through `applied` and needs `applied+1..` resent.
    ApplyNack {
        /// Refused sequence.
        seq: u64,
        /// Refusing shard.
        shard: usize,
        /// Highest sequence the refusing shard has applied.
        applied: u64,
    },
}

const KIND_PROBE: u8 = 1;
const KIND_PROBE_REPLY: u8 = 2;
const KIND_APPLY: u8 = 3;
const KIND_APPLY_ACK: u8 = 4;
const KIND_APPLY_NACK: u8 = 5;

/// Caps that keep a corrupted length prefix from ballooning allocation.
const MAX_QUERIES: u32 = 1 << 16;
const MAX_KEYWORDS: u32 = 1 << 12;
const MAX_HITS: u32 = 1 << 24;
const MAX_KEYWORD_BYTES: u32 = 1 << 20;

impl ShardFrame {
    /// Encode to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(64));
        match self {
            ShardFrame::Probe { probe_id, origin, epoch, mode, queries } => {
                w.u8(KIND_PROBE);
                w.u64(*probe_id);
                w.u32(*origin as u32);
                w.u64(*epoch);
                w.u8(match mode {
                    ExecutionMode::Isolated => 0,
                    ExecutionMode::Shared => 1,
                });
                w.u32(queries.len() as u32);
                for q in queries {
                    w.u32(q.keywords.len() as u32);
                    for kw in &q.keywords {
                        w.string(kw);
                    }
                    w.f64(q.weight);
                }
            }
            ShardFrame::ProbeReply { probe_id, shard, ok, groups } => {
                w.u8(KIND_PROBE_REPLY);
                w.u64(*probe_id);
                w.u32(*shard as u32);
                w.u8(u8::from(*ok));
                w.u32(groups.len() as u32);
                for hits in groups {
                    w.u32(hits.len() as u32);
                    for h in hits {
                        w.tuple_id(h.tuple.table.0, h.tuple.row);
                        w.f64(h.confidence);
                    }
                }
            }
            ShardFrame::Apply { seq, origin, epoch, completed, ops } => {
                w.u8(KIND_APPLY);
                w.u64(*seq);
                w.u32(*origin as u32);
                w.u64(*epoch);
                w.u8(u8::from(*completed));
                w.u32(ops.len() as u32);
                w.bytes(ops);
            }
            ShardFrame::ApplyAck { seq, shard, digest } => {
                w.u8(KIND_APPLY_ACK);
                w.u64(*seq);
                w.u32(*shard as u32);
                w.u64(*digest);
            }
            ShardFrame::ApplyNack { seq, shard, applied } => {
                w.u8(KIND_APPLY_NACK);
                w.u64(*seq);
                w.u32(*shard as u32);
                w.u64(*applied);
            }
        }
        w.0
    }

    /// Decode from the wire form.
    pub fn decode(bytes: &[u8]) -> Result<ShardFrame, FrameError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8("kind")? {
            KIND_PROBE => {
                let probe_id = r.u64("probe_id")?;
                let origin = r.u32("origin")? as usize;
                let epoch = r.u64("epoch")?;
                let mode = match r.u8("mode")? {
                    0 => ExecutionMode::Isolated,
                    1 => ExecutionMode::Shared,
                    m => return Err(FrameError(format!("unknown execution mode {m}"))),
                };
                let n = capped(r.u32("query count")?, MAX_QUERIES, "query count")?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    let kws = capped(r.u32("keyword count")?, MAX_KEYWORDS, "keyword count")?;
                    let mut keywords = Vec::with_capacity(kws);
                    for _ in 0..kws {
                        let keyword = r.string("keyword")?;
                        capped(keyword.len() as u32, MAX_KEYWORD_BYTES, "keyword length")?;
                        keywords.push(keyword);
                    }
                    let weight = r.f64("weight")?;
                    queries.push(KeywordQuery::new(keywords).with_weight(weight));
                }
                ShardFrame::Probe { probe_id, origin, epoch, mode, queries }
            }
            KIND_PROBE_REPLY => {
                let probe_id = r.u64("probe_id")?;
                let shard = r.u32("shard")? as usize;
                let ok = r.u8("ok")? != 0;
                let n = capped(r.u32("group count")?, MAX_QUERIES, "group count")?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let hits = capped(r.u32("hit count")?, MAX_HITS, "hit count")?;
                    let mut list = Vec::with_capacity(hits);
                    for _ in 0..hits {
                        list.push(SearchHit {
                            tuple: r.tuple_id("hit tuple")?.into(),
                            confidence: r.f64("hit confidence")?,
                        });
                    }
                    groups.push(list);
                }
                ShardFrame::ProbeReply { probe_id, shard, ok, groups }
            }
            KIND_APPLY => {
                let seq = r.u64("seq")?;
                let origin = r.u32("origin")? as usize;
                let epoch = r.u64("epoch")?;
                let completed = r.u8("completed")? != 0;
                let len = r.u32("ops length")? as usize;
                let ops = r.bytes("ops", len)?.to_vec();
                ShardFrame::Apply { seq, origin, epoch, completed, ops }
            }
            KIND_APPLY_ACK => ShardFrame::ApplyAck {
                seq: r.u64("seq")?,
                shard: r.u32("shard")? as usize,
                digest: r.u64("digest")?,
            },
            KIND_APPLY_NACK => ShardFrame::ApplyNack {
                seq: r.u64("seq")?,
                shard: r.u32("shard")? as usize,
                applied: r.u64("applied")?,
            },
            k => return Err(FrameError(format!("unknown frame kind {k}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// A count or length field, refused when it exceeds its cap.
fn capped(n: u32, cap: u32, what: &str) -> Result<usize, FrameError> {
    if n > cap {
        return Err(FrameError(format!("implausible {what} {n}")));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;
    use relstore::TupleId;

    fn roundtrip(f: ShardFrame) {
        let bytes = f.encode();
        assert_eq!(ShardFrame::decode(&bytes).expect("decode"), f);
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(ShardFrame::Probe {
            probe_id: 7,
            origin: 2,
            epoch: 3,
            mode: ExecutionMode::Shared,
            queries: vec![
                KeywordQuery::new(["acute", "lymphoblastic"]).with_weight(0.75),
                KeywordQuery::new(Vec::<String>::new()),
            ],
        });
        roundtrip(ShardFrame::ProbeReply {
            probe_id: 7,
            shard: 1,
            ok: true,
            groups: vec![
                vec![SearchHit { tuple: TupleId::new(TableId(4), 99), confidence: 0.512_345 }],
                vec![],
            ],
        });
        roundtrip(ShardFrame::ProbeReply { probe_id: 8, shard: 3, ok: false, groups: vec![] });
        roundtrip(ShardFrame::Apply {
            seq: 41,
            origin: 0,
            epoch: 2,
            completed: true,
            ops: vec![1, 2, 3, 4, 5],
        });
        roundtrip(ShardFrame::ApplyAck { seq: 41, shard: 2, digest: 0xDEAD_BEEF });
        roundtrip(ShardFrame::ApplyNack { seq: 41, shard: 2, applied: 39 });
    }

    #[test]
    fn confidence_is_bit_exact() {
        let hit = SearchHit { tuple: TupleId::new(TableId(0), 1), confidence: 0.1 + 0.2 };
        let f = ShardFrame::ProbeReply { probe_id: 1, shard: 0, ok: true, groups: vec![vec![hit]] };
        match ShardFrame::decode(&f.encode()).expect("decode") {
            ShardFrame::ProbeReply { groups, .. } => {
                assert_eq!(groups[0][0].confidence.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncation_and_junk_are_typed_errors() {
        let good = ShardFrame::ApplyAck { seq: 1, shard: 0, digest: 9 }.encode();
        for cut in 0..good.len() {
            assert!(ShardFrame::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert!(ShardFrame::decode(&[0xFF, 1, 2]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(ShardFrame::decode(&trailing).is_err());
    }
}
