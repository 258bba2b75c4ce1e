//! Connected components (the paper seeds clustering from the largest
//! component, §4: "all experiments start from a single arbitrary vertex in
//! the largest component").

use crate::csr::Graph;

/// Labels each vertex with a component id (the smallest vertex id in its
/// component), via BFS. `O(n + m)`.
fn connected_components(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut queue = Vec::new();
    for start in 0..n as u32 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = start;
        queue.clear();
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &w in g.neighbors(v) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = start;
                    queue.push(w);
                }
            }
        }
    }
    label
}

/// Returns the members of the largest connected component (ties broken by
/// smallest component id), sorted by vertex id.
pub fn largest_component(g: &Graph) -> Vec<u32> {
    let labels = connected_components(g);
    let n = g.num_vertices();
    let mut counts = vec![0u32; n];
    for &l in &labels {
        counts[l as usize] += 1;
    }
    let best = (0..n)
        .max_by_key(|&i| (counts[i], std::cmp::Reverse(i)))
        .unwrap_or(0) as u32;
    (0..n as u32)
        .filter(|&v| labels[v as usize] == best)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn single_component() {
        let g = gen::cycle(10);
        let labels = connected_components(&g);
        assert!(labels.iter().all(|&l| l == 0));
        assert_eq!(largest_component(&g).len(), 10);
    }

    #[test]
    fn two_components_and_isolated_vertex() {
        // 0-1-2 path, 3-4 edge, 5 isolated.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[5], 5);
        assert_eq!(largest_component(&g), vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph_components() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(connected_components(&g), vec![0, 1, 2]);
        assert_eq!(largest_component(&g).len(), 1);
    }
}
