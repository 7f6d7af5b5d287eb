//! EXPERIMENTS.md tables written by the bench that measures them.
//!
//! A bench that persists a `BENCH_*.json` artifact also rewrites its
//! table in EXPERIMENTS.md from the same numbers, so the document cannot
//! drift from the artifact. Each table sits between the marker lines
//! `<!-- table:NAME -->` and `<!-- /table:NAME -->`.

/// Replace the body of table `name` in the repo's EXPERIMENTS.md with
/// `table` (markdown rows, newline-terminated). Panics when the markers
/// are missing, so a renamed section fails loudly instead of silently
/// going stale.
pub fn write(name: &str, table: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let doc = replace(&doc, name, table)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no <!-- table:{name} --> markers"));
    std::fs::write(path, doc).expect("write EXPERIMENTS.md");
    println!("# wrote the {name} table in {path}");
}

fn replace(doc: &str, name: &str, table: &str) -> Option<String> {
    let open = format!("<!-- table:{name} -->\n");
    let close = format!("<!-- /table:{name} -->");
    let start = doc.find(&open)? + open.len();
    let end = start + doc[start..].find(&close)?;
    Some(format!("{}{table}{}", &doc[..start], &doc[end..]))
}

/// A figure rounded for a table: whole numbers from 100 up, one decimal
/// below.
pub fn figure(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_only_the_named_table() {
        let doc = "a\n<!-- table:x -->\nold\n<!-- /table:x -->\nb\n<!-- table:y -->\nkeep\n<!-- /table:y -->\n";
        let out = replace(doc, "x", "new 1\nnew 2\n").unwrap();
        assert_eq!(
            out,
            "a\n<!-- table:x -->\nnew 1\nnew 2\n<!-- /table:x -->\nb\n<!-- table:y -->\nkeep\n<!-- /table:y -->\n"
        );
        assert!(replace(doc, "z", "").is_none());
    }

    #[test]
    fn rounds_like_the_tables() {
        assert_eq!(figure(2041.066), "2041");
        assert_eq!(figure(93.179), "93.2");
        assert_eq!(figure(3.075), "3.1");
    }
}
