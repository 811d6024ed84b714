//! Knob inventory: every `RSD_*` environment variable the code names as a
//! string literal is documented in the README, and the README documents
//! no `RSD_*` variable the code no longer reads.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `RSD_`-prefixed names made of `[A-Z0-9_]`, found in `text`. With
/// `quoted`, only full string literals (`"RSD_X"`) count.
fn knob_names(text: &str, quoted: bool) -> BTreeSet<String> {
    let is_name_byte = |b: u8| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_';
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    for (start, _) in text.match_indices("RSD_") {
        if start > 0 && is_name_byte(bytes[start - 1]) {
            continue;
        }
        let end = start
            + bytes[start..]
                .iter()
                .position(|&b| !is_name_byte(b))
                .unwrap_or(bytes.len() - start);
        if end == start + "RSD_".len() {
            continue;
        }
        let literal = start > 0 && bytes[start - 1] == b'"' && bytes.get(end) == Some(&b'"');
        if !quoted || literal {
            out.insert(text[start..end].to_string());
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn readme_documents_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    let mut code = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source");
        code.extend(knob_names(&text, true));
    }
    let readme = knob_names(
        &std::fs::read_to_string(root.join("README.md")).expect("read README"),
        false,
    );
    assert!(code.contains("RSD_SCALE"), "scan found the code's knobs");
    let undocumented: Vec<_> = code.difference(&readme).collect();
    let stale: Vec<_> = readme.difference(&code).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read by the code but missing from README.md: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "README.md documents knobs the code no longer reads: {stale:?}"
    );
}
