//! Every artifact, byte for byte: the 26 `ARTIFACTS` rendered in-process at
//! `small` scale, seed 7, digest to `ARTIFACT_DIGEST`.
//!
//! The digest covers exactly what `figures everything --scale small --seed 7`
//! prints to stdout, so a change meant to leave every figure alone leaves it
//! alone, and one meant to move a figure re-records it together with any
//! golden it moves. On a mismatch the test prints one digest per artifact,
//! so the failure names the artifacts that moved; to find the moved lines,
//! diff `figures <id> --scale small --seed 7` against the parent's binary.

use anycast_bench::worlds::Scale;
use anycast_bench::ARTIFACTS;

const SEED: u64 = 7;

/// FNV-1a of the concatenated renderings, each followed by the newline
/// `figures` prints after it.
const ARTIFACT_DIGEST: u64 = 0x2372_d80f_232d_e157;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_artifact_matches_its_digest() {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let mut all = BASIS;
    let mut each = Vec::with_capacity(ARTIFACTS.len());
    for &(id, _, compute) in &ARTIFACTS {
        let text = format!("{}\n", compute(Scale::Small, SEED).render());
        all = fnv(all, text.as_bytes());
        each.push((id, fnv(BASIS, text.as_bytes())));
    }
    if all != ARTIFACT_DIGEST {
        let lines: Vec<String> = each
            .iter()
            .map(|(id, d)| format!("  {id:<28} {d:#018x}"))
            .collect();
        panic!(
            "the artifacts moved: digest {all:#018x}, recorded {ARTIFACT_DIGEST:#018x}; \
             per artifact:\n{}",
            lines.join("\n")
        );
    }
}
