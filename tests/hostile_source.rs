//! Hostile source, fuzzing half: seeded byte-level mutants of the 16 suite
//! monitors — a bit flipped, a span inserted, deleted or duplicated, one to
//! three times — run through the whole front end: `tokenize`,
//! `parse_monitor`, `check_monitor` and `compile::Program::new`. No mutant
//! may panic or hang, and a lexer or parser error must name a line of the
//! mutant (the checker's errors name the declaration or method instead; the
//! syntax tree keeps no lines). The mutation loop is the one
//! `tests/persistence.rs` runs over artifacts.

use expresso_repro::logic::Lcg;
use expresso_repro::monitor_lang::{check_monitor, parse_monitor, tokenize, Program};
use expresso_repro::suite::benchmarks;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Mutants per suite monitor.
const MUTANTS: usize = 600;

/// Bytes an inserted span is drawn from: half the time the language's own
/// punctuation, digits, keywords' letters and line breaks, so mutants get
/// past the lexer; otherwise any byte at all.
const ALPHABET: &[u8] = b"{}()[];,=<>!&|+-*/%~^ \n0123456789aeilmnorstuwx_";

fn span(rng: &mut Lcg, len: usize, max: usize) -> std::ops::Range<usize> {
    let start = rng.index(len);
    start..(start + 1 + rng.index(max)).min(len)
}

fn mutate(rng: &mut Lcg, source: &[u8]) -> Vec<u8> {
    let mut bytes = source.to_vec();
    for _ in 0..1 + rng.index(3) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(4) {
            // One flipped bit.
            0 => {
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            // A span of new bytes inserted.
            1 => {
                let at = rng.index(bytes.len() + 1);
                let inserted: Vec<u8> = (0..1 + rng.index(8))
                    .map(|_| {
                        if rng.below(2) == 0 {
                            ALPHABET[rng.index(ALPHABET.len())]
                        } else {
                            rng.below(256) as u8
                        }
                    })
                    .collect();
                bytes.splice(at..at, inserted);
            }
            // A span deleted.
            2 => {
                let cut = span(rng, bytes.len(), 32);
                bytes.drain(cut);
            }
            // A span duplicated somewhere else.
            _ => {
                let copied = bytes[span(rng, bytes.len(), 64)].to_vec();
                let at = rng.index(bytes.len() + 1);
                bytes.splice(at..at, copied);
            }
        }
    }
    bytes
}

/// Runs one mutant through the front end, answering how far it got (0: an
/// error, 1: parsed, 2: checked and compiled); `Err` says what went wrong.
fn front_end(source: &str) -> Result<usize, String> {
    let lines = 1 + source.matches('\n').count();
    let on_a_line = |what: &str, line: usize| {
        if (1..=lines).contains(&line) {
            Ok(())
        } else {
            Err(format!("{what} error on line {line} of {lines}"))
        }
    };
    if let Err(e) = tokenize(source) {
        on_a_line("lex", e.line)?;
    }
    let monitor = match parse_monitor(source) {
        Ok(monitor) => monitor,
        Err(e) => return on_a_line("parse", e.line).map(|()| 0),
    };
    if check_monitor(&monitor).is_err() {
        return Ok(1);
    }
    let _ = Program::new(&monitor);
    Ok(2)
}

#[test]
fn source_with_no_token_is_an_error_on_its_last_line() {
    // With no token to point at, the error is on the input's last line.
    for (source, line) in [("", 1), ("\n\n", 3), ("// nothing\n", 2), ("/* x */", 1)] {
        let error = parse_monitor(source).expect_err("no monitor");
        assert_eq!(error.line, line, "{source:?}: {error}");
    }
}

#[test]
fn mutated_suite_sources_never_panic_or_hang_and_errors_name_their_line() {
    let (done, finished) = mpsc::channel();
    let fuzz = std::thread::spawn(move || {
        let mut rng = Lcg::new(0x50_0CE5);
        let mut outcomes = [0usize; 3];
        for benchmark in benchmarks::all() {
            for mutant in 0..MUTANTS {
                let bytes = mutate(&mut rng, benchmark.source.as_bytes());
                let source = String::from_utf8_lossy(&bytes);
                match front_end(&source) {
                    Ok(reached) => outcomes[reached] += 1,
                    Err(e) => panic!("{} mutant {mutant}: {e}\n{source}", benchmark.name),
                }
            }
        }
        done.send(outcomes).expect("the test waits for the fuzz");
    });
    // A mutant that hangs the front end fails the test instead of stalling
    // it; one that panics drops the sender, and the panic is passed on.
    let [refused, parsed, compiled] = match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(outcomes) => {
            fuzz.join()
                .expect("the fuzz sent its outcomes and returned");
            outcomes
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(fuzz.join().expect_err("a fuzz that sent nothing panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("a mutant hung the front end for a minute"),
    };
    // The fuzz is only worth its name if it reaches every stage.
    assert!(
        refused > 100 && parsed > 100 && compiled > 100,
        "{refused} mutants refused, {parsed} parsed but not checked, {compiled} compiled"
    );
}
