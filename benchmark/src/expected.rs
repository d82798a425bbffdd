//! The hand-written expected answers under `benchmark/expected/`.
//!
//! Line grammar (`#` starts a comment):
//!
//! ```text
//! size <item> <n>                        obligations one run of <item> submits
//! refuted <group> <target> <width> <op> <forms>
//! ```
//!
//! `<group>` is the item name up to its first `/`; `<forms>` is `X` (the
//! register form) and/or `K:<imm>,<imm>,...` (immediate forms). Every
//! obligation no `refuted` line covers is expected `Proved`.

use std::collections::{HashMap, HashSet};
use std::path::Path;

const BUILT_IN: [&str; 3] = [
    include_str!("../expected/monitors.txt"),
    include_str!("../expected/jit.txt"),
    include_str!("../expected/smoke.txt"),
];

#[derive(Default)]
pub struct Expected {
    refuted: HashMap<String, HashSet<String>>,
    sizes: HashMap<String, u64>,
}

impl Expected {
    /// The files compiled into the binary, or every `*.txt` of `dir`
    /// (the flip-one-line test points this at an edited copy).
    pub fn load(dir: Option<&Path>) -> Result<Expected, String> {
        let mut e = Expected::default();
        match dir {
            None => {
                for text in BUILT_IN {
                    e.parse(text)?;
                }
            }
            Some(dir) => {
                let mut files: Vec<_> = std::fs::read_dir(dir)
                    .map_err(|err| format!("{}: {err}", dir.display()))?
                    .filter_map(|f| f.ok().map(|f| f.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "txt"))
                    .collect();
                files.sort();
                for f in files {
                    let text = std::fs::read_to_string(&f)
                        .map_err(|err| format!("{}: {err}", f.display()))?;
                    e.parse(&text)?;
                }
            }
        }
        Ok(e)
    }

    fn parse(&mut self, text: &str) -> Result<(), String> {
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                [] => {}
                ["size", item, n] => {
                    let n = n.parse().map_err(|_| format!("bad size in {raw:?}"))?;
                    self.sizes.insert(item.to_string(), n);
                }
                ["refuted", group, target, width, op, forms @ ..] if !forms.is_empty() => {
                    let labels = self.refuted.entry(group.to_string()).or_default();
                    for form in forms {
                        let mut add = |src: &str, imm: &str| {
                            labels.insert(format!(
                                "{target}: {width} {{ op: {op}, src: {src}, dst: 1, srcr: 2, imm: {imm} }}"
                            ));
                        };
                        if *form == "X" {
                            add("X", "0");
                        } else if let Some(imms) = form.strip_prefix("K:") {
                            imms.split(',').for_each(|imm| add("K", imm));
                        } else {
                            return Err(format!("bad form {form:?} in {raw:?}"));
                        }
                    }
                }
                _ => return Err(format!("cannot read expected-answer line {raw:?}")),
            }
        }
        Ok(())
    }

    pub fn wants_refuted(&self, item: &str, label: &str) -> bool {
        let group = item.split('/').next().unwrap_or(item);
        self.refuted
            .get(group)
            .is_some_and(|labels| labels.contains(label))
    }

    pub fn size(&self, item: &str) -> Option<u64> {
        self.sizes.get(item).copied()
    }
}
