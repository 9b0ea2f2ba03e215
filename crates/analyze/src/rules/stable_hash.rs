//! `stable-hash-coverage`: every field of a struct that implements
//! `StableHash` must be folded into the hash.
//!
//! The serve store is content-addressed by `StableHash`. When a struct
//! it hashes grows a field that the hand-written impl forgets, two
//! values differing only in that field collide — and the store silently
//! serves results computed for the *other* one. This is the
//! nastiest failure mode in the workspace (wrong numbers, no error), so
//! the rule cross-references `struct` definitions with their impls at
//! crate scope and demands every named field appear inside the impl
//! block. Tuple and unit structs, and impls for foreign types, are out
//! of scope.

use crate::lexer::{Tok, TokKind};
use crate::rules::Finding;
use crate::scan::{SourceFile, TargetKind};

/// Rule id.
pub const ID: &str = "stable-hash-coverage";

struct StructDef {
    name: String,
    fields: Vec<String>,
}

struct HashImpl {
    type_name: String,
    idents: Vec<String>,
    file_idx: usize,
    line: u32,
}

/// Checks one crate: returns `(file index, finding)` pairs.
pub fn check_crate(files: &[SourceFile]) -> Vec<(usize, Finding)> {
    let mut structs: Vec<StructDef> = Vec::new();
    let mut impls: Vec<HashImpl> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        if file.target != TargetKind::Lib {
            continue;
        }
        collect_structs(&file.code, &mut structs);
        collect_impls(&file.code, idx, &mut impls);
    }
    let mut findings = Vec::new();
    for imp in &impls {
        let Some(def) = structs.iter().find(|s| s.name == imp.type_name) else {
            continue;
        };
        for field in &def.fields {
            if !imp.idents.iter().any(|i| i == field) {
                findings.push((
                    imp.file_idx,
                    Finding {
                        line: imp.line,
                        message: format!(
                            "field `{}` of `{}` is not covered by its StableHash impl",
                            field, imp.type_name
                        ),
                        hint: "hash every field; an unhashed field makes distinct configs \
                               collide to one cache key and serves stale results"
                            .into(),
                    },
                ));
            }
        }
    }
    findings
}

fn collect_structs(code: &[Tok], out: &mut Vec<StructDef>) {
    let mut i = 0;
    while i < code.len() {
        let is_struct = code.get(i).is_some_and(|t| t.is_ident("struct"))
            && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident);
        if !is_struct {
            i += 1;
            continue;
        }
        let name = code.get(i + 1).map_or(String::new(), |t| t.text.clone());
        let mut j = i + 2;
        j = skip_generics(code, j);
        // Optional `where` clause: scan to the body start.
        let mut depth = 0i32;
        let body = loop {
            let Some(t) = code.get(j) else { break None };
            if t.kind == TokKind::Punct {
                match t.text.chars().next() {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('{') if depth == 0 => break Some(j),
                    Some(';') if depth == 0 => break None, // tuple/unit struct
                    _ => {}
                }
            }
            j += 1;
        };
        if let Some(open) = body {
            out.push(StructDef {
                name,
                fields: parse_fields(code, open),
            });
        }
        i = j.max(i + 2);
    }
}

/// Parses named-field identifiers from the struct body opening at `open`.
fn parse_fields(code: &[Tok], open: usize) -> Vec<String> {
    let mut fields = Vec::new();
    let mut j = open + 1;
    let mut expect_field = true;
    let mut brace = 1i32;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut prev_dash = false;
    while let Some(t) = code.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.chars().next() {
                Some('{') => brace += 1,
                Some('}') => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                Some('(') | Some('[') => paren += 1,
                Some(')') | Some(']') => paren -= 1,
                Some('<') if brace == 1 && paren == 0 => angle += 1,
                Some('>') if brace == 1 && paren == 0 && !prev_dash => angle = (angle - 1).max(0),
                Some(',') if brace == 1 && paren == 0 && angle == 0 => expect_field = true,
                _ => {}
            }
            prev_dash = t.is_punct('-');
            j += 1;
            continue;
        }
        prev_dash = false;
        if expect_field && brace == 1 && paren == 0 && angle == 0 && t.kind == TokKind::Ident {
            if t.text == "pub" {
                // Visibility, possibly `pub(crate)`: keep looking.
                j += 1;
                continue;
            }
            if code.get(j + 1).is_some_and(|n| n.is_punct(':')) {
                fields.push(t.text.clone());
                expect_field = false;
            }
        }
        j += 1;
    }
    fields
}

fn collect_impls(code: &[Tok], file_idx: usize, out: &mut Vec<HashImpl>) {
    let mut i = 0;
    while i < code.len() {
        if !code.get(i).is_some_and(|t| t.is_ident("impl")) {
            i += 1;
            continue;
        }
        let line = code.get(i).map_or(1, |t| t.line);
        let mut j = skip_generics(code, i + 1);
        if !code.get(j).is_some_and(|t| t.is_ident("StableHash")) {
            i += 1;
            continue;
        }
        j += 1;
        if !code.get(j).is_some_and(|t| t.is_ident("for")) {
            i += 1;
            continue;
        }
        j += 1;
        let Some(name_tok) = code.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            i = j;
            continue;
        }
        let type_name = name_tok.text.clone();
        // Find the impl block and collect every identifier inside it.
        let mut k = j + 1;
        while code.get(k).is_some_and(|t| !t.is_punct('{')) {
            k += 1;
        }
        let mut depth = 0i32;
        let mut idents = Vec::new();
        while let Some(t) = code.get(k) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                idents.push(t.text.clone());
            }
            k += 1;
        }
        out.push(HashImpl {
            type_name,
            idents,
            file_idx,
            line,
        });
        i = k.max(i + 1);
    }
}

/// Skips a `<...>` generics group starting at `j`, if present.
fn skip_generics(code: &[Tok], j: usize) -> usize {
    if !code.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while let Some(t) = code.get(k) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::file_from_source;

    #[test]
    fn missing_field_is_reported_complete_impl_passes() {
        let f = file_from_source(
            "pub struct Cfg { pub a: u32, pub b: f64 }\n\
             pub struct Ok2 { pub x: u32 }\n\
             impl StableHash for Cfg {\n fn stable_hash(&self, h: &mut H) { self.a.stable_hash(h); }\n}\n\
             impl StableHash for Ok2 {\n fn stable_hash(&self, h: &mut H) { self.x.stable_hash(h); }\n}\n",
            "src/lib.rs",
        );
        let findings = check_crate(&[f]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let (_, finding) = findings.first().expect("one finding");
        assert!(finding.message.contains("`b`"), "{}", finding.message);
    }

    #[test]
    fn tuple_structs_and_foreign_impls_are_skipped() {
        let f = file_from_source(
            "pub struct Hz(pub f64);\n\
             impl StableHash for Hz {\n fn stable_hash(&self, h: &mut H) { self.0.stable_hash(h); }\n}\n\
             impl<T: StableHash> StableHash for Vec<T> {\n fn stable_hash(&self, h: &mut H) {}\n}\n",
            "src/lib.rs",
        );
        assert!(check_crate(&[f]).is_empty());
    }

    #[test]
    fn generic_field_types_do_not_derail_field_parsing() {
        let f = file_from_source(
            "pub struct M { pub table: BTreeMap<u64, u64>, pub tail: f64 }\n\
             impl StableHash for M {\n fn h(&self) { self.table; self.tail; }\n}\n",
            "src/lib.rs",
        );
        let findings = check_crate(&[f]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn defs_and_impls_pair_across_files_of_one_crate() {
        let def = file_from_source("pub struct C { pub v: u32 }\n", "src/config.rs");
        let imp = file_from_source(
            "impl StableHash for C {\n fn h(&self) { /* forgot v */ }\n}\n",
            "src/hash.rs",
        );
        let findings = check_crate(&[def, imp]);
        assert_eq!(findings.len(), 1);
        let (idx, _) = findings.first().expect("one finding");
        assert_eq!(*idx, 1, "finding lands in the impl file");
    }
}
