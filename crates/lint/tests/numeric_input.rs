//! Numeric card values the element constructors would assert on must be
//! refused by the parser with a line-numbered error — and by the CLI
//! with exit status 2 — never reach a constructor and panic. SPICE scale
//! suffixes are accepted, with trailing unit letters ignored.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_lint::parse_netlist;
use std::io::Write;
use std::process::{Command, Stdio};

/// One bad card per entry; each sits on line 2 behind a valid card.
const BAD_CARDS: [&str; 16] = [
    "R1 a 0 1e999",
    "R1 a 0 1e999k",
    "R1 a 0 1k2",
    "R1 a 0 -0",
    "R1 a 0 nan",
    "R1 a 0 inf",
    "R1 a 0 -1000",
    "C1 a 0 0",
    "L1 a 0 -1e-9",
    "V1 a 0 DC nan",
    "M1 d g 0 0 nmos W=0 L=1e-6",
    "M1 d g 0 0 pmos W=1e-6 L=1e-9",
    "M1 d g 0 0 nmos W=nan L=1e-6",
    "D1 a 0 IS=0 N=1",
    "D1 a 0 IS=1e-14 N=-1",
    "D1 a 0 IS=1e-14 N=1e999",
];

/// Scaled values and the plain numbers they must equal.
const SCALED: [(&str, &str); 5] = [
    ("R1 a 0 1k", "R1 a 0 1000"),
    ("C1 a 0 10pF", "C1 a 0 1e-11"),
    ("R1 a 0 2meg", "R1 a 0 2e6"),
    ("R1 a 0 1kk", "R1 a 0 1000"),
    (
        "M1 d g 0 0 nmos W=10u L=0.18U",
        "M1 d g 0 0 nmos W=1e-5 L=1.8e-7",
    ),
];

fn netlist(card: &str) -> String {
    format!("R0 a 0 1000\n{card}\n.end\n")
}

#[test]
fn bad_numeric_values_are_parse_errors_not_panics() {
    for card in BAD_CARDS {
        let e = parse_netlist(&netlist(card)).expect_err(card);
        assert_eq!(e.line, 2, "{card}: {e}");
    }
    // The CLI turns the same inputs into exit status 2, like any parse
    // failure (a panic would exit 101).
    for card in BAD_CARDS {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cml-lint"))
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cml-lint");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(netlist(card).as_bytes())
            .expect("write netlist");
        let out = child.wait_with_output().expect("cml-lint exits");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{card}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn spice_scale_suffixes_scale_the_value() {
    for (scaled, plain) in SCALED {
        let a = parse_netlist(&netlist(scaled)).expect(scaled);
        let b = parse_netlist(&netlist(plain)).expect(plain);
        assert_eq!(a.netlist(), b.netlist(), "{scaled} vs {plain}");
    }
}
