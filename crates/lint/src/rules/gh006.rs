//! GH006: no heap allocation in the hot-loop kernel modules.
//!
//! `solve_grid` and `solve_exact` run once per epoch times every sweep
//! scenario, and the end-epoch kernels (`train_holt`'s grid search and
//! the curve fit behind `PerfDatabase::record_feedback`) run on every
//! retrain and every feedback sample of every rack; a `Vec` built per
//! call shows up directly in epoch wall
//! time. Hot-loop working memory lives on the stack or comes from
//! reusable buffers such as `SolverScratch` (whose module, `scratch.rs`,
//! is deliberately outside this rule's scope — it is the one place
//! allowed to allocate). One-time setup allocations can opt out with
//! `// greenhetero-lint: allow(GH006) <reason>`.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::model::FileModel;

/// The rule code.
pub const RULE: &str = "GH006";

/// Runs GH006 over one file (the caller scopes it to hot-loop modules).
pub fn check(model: &FileModel, diags: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next = |n: usize| tokens.get(i + n).map(|tok| tok.text.as_str());
        let found: Option<String> = match t.text.as_str() {
            // Constructor paths: `Vec::new()`, `Vec::with_capacity(n)`,
            // `Vec::from(x)`. A bare `Vec<...>` type mention is fine.
            "Vec" => (next(1) == Some(":") && next(2) == Some(":"))
                .then(|| next(3))
                .flatten()
                .filter(|c| matches!(*c, "new" | "with_capacity" | "from"))
                .map(|c| format!("Vec::{c}")),
            // The `vec![…]` macro.
            "vec" => (next(1) == Some("!")).then(|| "vec!".to_owned()),
            // Allocating method calls: `.to_vec()` and `.collect()`
            // (with or without a turbofish).
            "to_vec" | "collect" => {
                let is_method = i > 0 && tokens[i - 1].text == ".";
                let is_call =
                    next(1) == Some("(") || (next(1) == Some(":") && next(2) == Some(":"));
                (is_method && is_call).then(|| format!(".{}()", t.text))
            }
            _ => None,
        };
        let Some(what) = found else {
            continue;
        };
        if model.in_test_code(t.line) || model.is_allowed(RULE, t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            RULE,
            &model.path,
            t.line,
            format!("`{what}` allocates in a hot-loop kernel module; keep working memory on the stack or borrow a reusable buffer such as `SolverScratch` (or justify with a `greenhetero-lint: allow(GH006) <reason>` comment)"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = FileModel::build("f.rs", src);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn fixture_fail_is_flagged() {
        let diags = run(include_str!("../../fixtures/gh006_fail.rs"));
        assert!(
            diags.len() >= 4,
            "expected Vec::new/to_vec/collect/vec! hits, got {diags:?}"
        );
        assert!(diags.iter().all(|d| d.rule == "GH006"));
    }

    #[test]
    fn fixture_pass_is_clean() {
        let diags = run(include_str!("../../fixtures/gh006_pass.rs"));
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn type_mentions_and_non_method_idents_are_fine() {
        assert!(run("fn f(v: Vec<u32>) -> usize { v.len() }\n").is_empty());
        assert!(run("fn collect(x: u32) -> u32 { x }\nfn g() -> u32 { collect(1) }\n").is_empty());
    }

    #[test]
    fn turbofish_collect_is_flagged() {
        let diags = run("fn f(v: &[u32]) -> Vec<u32> { v.iter().copied().collect::<Vec<_>>() }\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains(".collect()"));
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = "fn f(n: usize) -> Vec<f64> {\n    vec![0.0; n] // greenhetero-lint: allow(GH006) constructor allocation, outside the walk\n}\n";
        assert!(run(src).is_empty());
    }
}
