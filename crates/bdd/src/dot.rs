//! Graphviz (DOT) export of ROBDDs, for inspection and documentation.

use socy_dd::dot::{level_label, DotWriter};

use crate::manager::{BddId, BddManager};

impl BddManager {
    /// Renders the BDD rooted at `f` in Graphviz DOT syntax.
    ///
    /// Dashed edges are low (variable = 0) edges, solid edges are high
    /// (variable = 1) edges. `var_names` optionally maps levels to
    /// human-readable names; levels without a name are rendered as
    /// `x<level>`.
    pub fn to_dot(&self, f: BddId, var_names: Option<&[String]>) -> String {
        let mut dot = DotWriter::new("robdd");
        for id in self.reachable(f) {
            if id.is_terminal() {
                continue;
            }
            let level = self.level(id).expect("non-terminal");
            let (low, high) = (self.low(id), self.high(id));
            dot.node(id.0, &level_label(var_names, level));
            dot.edge(id.0, low.0, Some("style=dashed"));
            dot.edge(id.0, high.0, None);
        }
        dot.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut mgr = BddManager::new(2);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.and(x, y);
        let dot = mgr.to_dot(f, None);
        assert!(dot.starts_with("digraph robdd {"));
        assert!(dot.contains("label=\"x0\""));
        assert!(dot.contains("label=\"x1\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_uses_supplied_names() {
        let mut mgr = BddManager::new(2);
        let x = mgr.var(0);
        let names = vec!["alpha".to_string(), "beta".to_string()];
        let dot = mgr.to_dot(x, Some(&names));
        assert!(dot.contains("label=\"alpha\""));
        assert!(!dot.contains("label=\"beta\""));
    }

    #[test]
    fn dot_of_terminal() {
        let mgr = BddManager::new(1);
        let dot = mgr.to_dot(mgr.one(), None);
        assert!(dot.contains("node1 [label=\"1\""));
    }
}
