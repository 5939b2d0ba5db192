//! Every paper artifact of `experiments`, rendered at quick scale, pinned
//! by the digest of its text: `PASTA_SCALE=quick experiments` prints
//! these bytes, so a moved digest means a figure or table moved. The ten
//! paper rows were pinned from the output of the commit before the
//! `ablations` row was added (16,505 bytes).

use pasta::scenarios::fnv1a;
use pasta_bench::{ExpScale, ARTIFACTS};

/// `(artifact, digest of its quick-scale text)`, in [`ARTIFACTS`] order.
const DIGESTS: [(&str, &str); 11] = [
    ("fig4", "6c9956f5b05414ec"),
    ("fig7", "1371df68d0b45a3e"),
    ("table5", "df5a47567c07d894"),
    ("fig9", "551f8a5ec1ca5606"),
    ("fig10", "7a21750027bc8df7"),
    ("fig11", "91cc2611cefe42a2"),
    ("fig12", "75d8ab3ec70fbc98"),
    ("fig13", "ae9edf5edc657087"),
    ("fig14", "b8f4fb31639516c8"),
    ("fig15", "3895fa9d0a109b7a"),
    ("ablations", "c64b85e6dfbda0c8"),
];

#[test]
fn every_artifact_reproduces_its_pinned_digest_at_quick_scale() {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, DIGESTS.map(|(name, _)| name));
    let mut failures = Vec::new();
    for ((name, run), (_, pinned)) in ARTIFACTS.iter().zip(DIGESTS) {
        let text = run(ExpScale::quick()).expect("the artifact runs");
        let digest = format!("{:016x}", fnv1a(text.as_bytes()));
        if digest != pinned {
            failures.push(format!("{name}: digest {digest}, pinned {pinned}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
