//! Monitor-level outcome records: what the analysis *answered* for one whole
//! monitor, keyed on everything that answer is a function of.
//!
//! The leaf sections memoise lemmas — a satisfiability verdict, a weakest
//! precondition — and a warm run still re-walks check → abduction →
//! placement to collect them. A record is the finished answer: the invariant,
//! every `(CCR, guard)` decision of Algorithm 1 and the counters reported
//! beside them. Σ is not stored a second time: it is the `needed` decisions
//! in order, which is how placement itself builds it.
//!
//! The key is the canonical encoding of the parsed monitor plus the two
//! configuration fields that change what the analysis answers. It is
//! write-only — the loader keeps the bytes and never decodes them — so a
//! lookup is a binary search on the stored hash followed by a comparison of
//! the bytes: a hash collision (or a forged hash) can only ever be a miss.

use crate::codec::{self, checksum, DecodeError, Reader, Writer};
use crate::table::Row;
use expresso_monitor_lang::canon::write_monitor;
use expresso_monitor_lang::{Monitor, NotificationKind, SignalCondition};

/// What an outcome record is found by. Ordered by hash, then bytes — the
/// order of the artifact's outcome section.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OutcomeKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl OutcomeKey {
    /// The key of analysing `monitor` with invariant inference and the §4.3
    /// commutativity improvement switched as given: every field of the AST
    /// (see `expresso_monitor_lang::canon`) and the two switches. Whitespace
    /// and comments are not in the AST and so not in the key; a changed
    /// constant, a renamed variable or two reordered methods are.
    pub fn of(monitor: &Monitor, infer_invariant: bool, use_commutativity: bool) -> Self {
        let mut w = Writer::new();
        w.bool(infer_invariant);
        w.bool(use_commutativity);
        write_monitor(&mut w, monitor);
        let bytes = w.into_bytes();
        OutcomeKey {
            hash: checksum(&bytes),
            bytes,
        }
    }

    /// The canonical bytes the key compares by.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// One `(CCR, guard)` decision with both sides named by position: `ccr`
/// indexes `Monitor::ccrs`, `guard` indexes `Monitor::guards()`. Whoever
/// replays it checks both against the monitor in hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    pub ccr: u32,
    pub guard: u32,
    pub needed: bool,
    pub condition: SignalCondition,
    pub kind: NotificationKind,
    pub used_commutativity: bool,
    pub conservative_fallback: bool,
}

/// The analysis outcome of one monitor, filed under that monitor's
/// [`OutcomeKey`]. `F` is how the invariant is named: a formula-table [`Row`]
/// in an [`Artifact`](crate::Artifact), an arena id on the way into
/// [`export_with_outcomes`](crate::export_with_outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRecord<F = Row> {
    pub invariant: F,
    /// Candidate invariants abduction proposed.
    pub candidates: u64,
    /// Candidates that survived the fixpoint.
    pub conjuncts: u64,
    /// Hoare triples placement discharged.
    pub triples_checked: u64,
    /// One decision per pair considered, in placement's order.
    pub decisions: Vec<DecisionRecord>,
}

impl<F> OutcomeRecord<F> {
    /// The same record with its invariant named some other way.
    pub fn with_invariant<G>(self, invariant: G) -> OutcomeRecord<G> {
        OutcomeRecord {
            invariant,
            candidates: self.candidates,
            conjuncts: self.conjuncts,
            triples_checked: self.triples_checked,
            decisions: self.decisions,
        }
    }
}

/// The record filed under `key` in a section ordered by key, if there is one.
pub(crate) fn find<'a>(
    outcomes: &'a [(OutcomeKey, OutcomeRecord)],
    key: &OutcomeKey,
) -> Option<&'a OutcomeRecord> {
    let from = outcomes.partition_point(|(filed, _)| filed.hash < key.hash);
    outcomes[from..]
        .iter()
        .take_while(|(filed, _)| filed.hash == key.hash)
        .find(|(filed, _)| filed.bytes == key.bytes)
        .map(|(_, record)| record)
}

const NEEDED: u8 = 1;
const CONDITIONAL: u8 = 2;
const BROADCAST: u8 = 4;
const USED_COMMUTATIVITY: u8 = 8;
const CONSERVATIVE_FALLBACK: u8 = 16;

pub(crate) fn write_outcome(w: &mut Writer, key: &OutcomeKey, record: &OutcomeRecord) {
    w.u64(key.hash);
    w.bytes(&key.bytes);
    w.u32(record.invariant);
    w.u64(record.candidates);
    w.u64(record.conjuncts);
    w.u64(record.triples_checked);
    w.seq(record.decisions.len());
    for d in &record.decisions {
        w.u32(d.ccr);
        w.u32(d.guard);
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        w.u8(flag(d.needed, NEEDED)
            | flag(d.condition == SignalCondition::Conditional, CONDITIONAL)
            | flag(d.kind == NotificationKind::Broadcast, BROADCAST)
            | flag(d.used_commutativity, USED_COMMUTATIVITY)
            | flag(d.conservative_fallback, CONSERVATIVE_FALLBACK));
    }
}

/// Reads one record over a `formulas`-row formula table. The stored hash is
/// taken as it is: one that is not the hash of the bytes beside it files the
/// record where no lookup arrives, which is a miss.
pub(crate) fn read_outcome(
    r: &mut Reader,
    formulas: usize,
) -> Result<(OutcomeKey, OutcomeRecord), DecodeError> {
    let key = OutcomeKey {
        hash: r.u64()?,
        bytes: r.bytes()?,
    };
    let invariant = r.row(formulas)?;
    let (candidates, conjuncts, triples_checked) = (r.u64()?, r.u64()?, r.u64()?);
    let decisions = (0..r.seq()?)
        .map(|_| {
            let (ccr, guard, flags) = (r.u32()?, r.u32()?, r.u8()?);
            if flags >= 2 * CONSERVATIVE_FALLBACK {
                return codec::err(format!("invalid decision flags {flags:#x}"));
            }
            let set = |bit: u8| flags & bit != 0;
            Ok(DecisionRecord {
                ccr,
                guard,
                needed: set(NEEDED),
                condition: if set(CONDITIONAL) {
                    SignalCondition::Conditional
                } else {
                    SignalCondition::Unconditional
                },
                kind: if set(BROADCAST) {
                    NotificationKind::Broadcast
                } else {
                    NotificationKind::Signal
                },
                used_commutativity: set(USED_COMMUTATIVITY),
                conservative_fallback: set(CONSERVATIVE_FALLBACK),
            })
        })
        .collect::<Result<_, DecodeError>>()?;
    let record = OutcomeRecord {
        invariant,
        candidates,
        conjuncts,
        triples_checked,
        decisions,
    };
    Ok((key, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::parse_monitor;

    const COUNTER: &str = "monitor Counter {
        int count = 0;
        atomic void release() { count++; }
        atomic void acquire() { waituntil (count > 0) { count--; } }
    }";

    fn key_of(source: &str) -> OutcomeKey {
        OutcomeKey::of(&parse_monitor(source).unwrap(), true, true)
    }

    /// A record with one decision per combination of the five flags.
    fn record() -> OutcomeRecord {
        let decisions = (0..32u32)
            .map(|bits| DecisionRecord {
                ccr: bits,
                guard: 31 - bits,
                needed: bits & 1 != 0,
                condition: if bits & 2 != 0 {
                    SignalCondition::Conditional
                } else {
                    SignalCondition::Unconditional
                },
                kind: if bits & 4 != 0 {
                    NotificationKind::Broadcast
                } else {
                    NotificationKind::Signal
                },
                used_commutativity: bits & 8 != 0,
                conservative_fallback: bits & 16 != 0,
            })
            .collect();
        OutcomeRecord {
            invariant: 0,
            candidates: 5,
            conjuncts: 2,
            triples_checked: 11,
            decisions,
        }
    }

    fn encoded(key: &OutcomeKey, record: &OutcomeRecord) -> Vec<u8> {
        let mut w = Writer::new();
        write_outcome(&mut w, key, record);
        w.into_bytes()
    }

    #[test]
    fn keys_ignore_layout_and_follow_everything_else() {
        let key = key_of(COUNTER);
        let relaid = COUNTER.replace("{ count++; }", "{\n  // bump\n  count++ ;\n}");
        assert_ne!(relaid, COUNTER);
        assert_eq!(key_of(&relaid), key);
        for (from, to) in [
            ("count > 0", "count > 1"),
            ("count", "tally"),
            ("Counter", "Counter2"),
            ("int count = 0", "int count = 1"),
        ] {
            assert_ne!(key_of(&COUNTER.replace(from, to)), key, "{from} -> {to}");
        }
        let monitor = parse_monitor(COUNTER).unwrap();
        assert_ne!(OutcomeKey::of(&monitor, false, true), key);
        assert_ne!(OutcomeKey::of(&monitor, true, false), key);
    }

    #[test]
    fn records_round_trip_with_every_flag() {
        let filed = (key_of(COUNTER), record());
        let bytes = encoded(&filed.0, &filed.1);
        let mut r = Reader::new(&bytes);
        assert_eq!(read_outcome(&mut r, 1), Ok(filed));
        assert!(r.is_empty());
    }

    #[test]
    fn malformed_records_are_refused() {
        let bytes = encoded(&key_of(COUNTER), &record());
        // The last byte is the flags of the last decision.
        let mut unknown_flag = bytes.clone();
        *unknown_flag.last_mut().unwrap() |= 0x20;
        let refused = read_outcome(&mut Reader::new(&unknown_flag), 1).unwrap_err();
        assert!(refused.0.contains("decision flags"), "{refused}");
        // The invariant must be a row of the formula table.
        let dangling = read_outcome(&mut Reader::new(&bytes), 0).unwrap_err();
        assert!(dangling.0.contains("row reference"), "{dangling}");
        // Cut anywhere — inside the key, the counters, a decision — the
        // reader runs out of bytes, it does not run past them.
        for keep in 0..bytes.len() {
            assert!(
                read_outcome(&mut Reader::new(&bytes[..keep]), 1).is_err(),
                "cut to {keep} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn a_lookup_confirms_the_bytes_behind_the_hash() {
        let (counter, other) = (key_of(COUNTER), key_of(&COUNTER.replace("count", "n")));
        // Told apart by their candidate counts.
        let numbered = |candidates| OutcomeRecord {
            candidates,
            ..record()
        };
        let mut outcomes = vec![(counter.clone(), numbered(1)), (other.clone(), numbered(2))];
        outcomes.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(find(&outcomes, &counter).map(|r| r.candidates), Some(1));
        assert_eq!(find(&outcomes, &other).map(|r| r.candidates), Some(2));
        assert!(find(&outcomes, &key_of(&COUNTER.replace("0", "7"))).is_none());
        // A planted collision: the right hash over some other monitor's
        // bytes, filed where the lookup of `counter` arrives.
        let forged = OutcomeKey {
            hash: counter.hash,
            bytes: other.bytes.clone(),
        };
        assert!(find(&[(forged.clone(), numbered(3))], &counter).is_none());
        // And with the genuine record right behind it, the genuine one.
        let mut both = vec![(forged, numbered(3)), (counter.clone(), numbered(1))];
        both.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(find(&both, &counter).map(|r| r.candidates), Some(1));
    }
}
