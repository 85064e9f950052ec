//! Docs and knobs cannot drift: every `STUDY_*` / `GALOIS_*` / `FIG2_*`
//! name the prose mentions is read by an `env::var("…")` under
//! `crates/`, and every name read there is mentioned in the prose — so a
//! deleted knob cannot survive in the docs and a new one cannot ship
//! undocumented.

use std::collections::BTreeSet;
use std::path::Path;

const PREFIXES: [&str; 3] = ["STUDY_", "GALOIS_", "FIG2_"];

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".github/workflows/ci.yml"];

/// The builder's notes; the task driver owns `.claude/`, so a checkout
/// without the file is legal and contributes no names.
const SKILL: &str = ".claude/skills/verify/SKILL.md";

fn is_knob(word: &str) -> bool {
    // A trailing underscore is a family mention (`STUDY_SVC_*`), not a name.
    PREFIXES
        .iter()
        .any(|p| word.starts_with(p) && word.len() > p.len())
        && !word.ends_with('_')
}

fn knobs_mentioned(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .filter(|w| is_knob(w))
}

fn knobs_read(dir: &Path, out: &mut BTreeSet<String>) {
    const CALL: &str = "env::var(\"";
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            knobs_read(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for (at, _) in src.match_indices(CALL) {
                let name = src[at + CALL.len()..].split('"').next().unwrap_or("");
                if is_knob(name) {
                    out.insert(name.to_string());
                }
            }
        }
    }
}

#[test]
fn documented_knobs_are_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    knobs_read(&root.join("crates"), &mut read);
    assert!(
        read.contains("STUDY_SCALE"),
        "the scan of crates/ found nothing: {read:?}"
    );

    let mut texts: Vec<(&str, String)> = DOCS
        .iter()
        .map(|doc| {
            let text = std::fs::read_to_string(root.join(doc));
            (*doc, text.unwrap_or_else(|e| panic!("{doc}: {e}")))
        })
        .collect();
    if let Ok(text) = std::fs::read_to_string(root.join(SKILL)) {
        texts.push((SKILL, text));
    }

    let mut documented = BTreeSet::new();
    let mut stale = BTreeSet::new();
    for (doc, text) in &texts {
        for name in knobs_mentioned(text) {
            if !read.contains(name) {
                stale.insert(format!("{doc}: {name}"));
            }
            documented.insert(name.to_string());
        }
    }
    assert!(
        stale.is_empty(),
        "docs name knobs no env::var under crates/ reads: {stale:#?}"
    );

    let undocumented: Vec<_> = read.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read under crates/ but named in none of {DOCS:?} or {SKILL}: {undocumented:?}"
    );
}
