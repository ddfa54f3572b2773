package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// The random forest is the only model that needs persistence (the DFS
// optimizer's meta-models are forests, and retraining them means re-running
// the scenario benchmark). The encoding is a stable JSON document: flattened
// node arrays per tree, so the format carries no Go-specific structure.

// forestDoc is the serialized random forest.
type forestDoc struct {
	Version  int       `json:"version"`
	Trees    []treeDoc `json:"trees"`
	Balanced bool      `json:"balanced"`
	Seed     uint64    `json:"seed"`
	MaxDepth int       `json:"max_depth"`
	NumTrees int       `json:"num_trees"`
}

// treeDoc is one serialized tree: nodes in pre-order, children by index.
type treeDoc struct {
	Nodes     []nodeDoc `json:"nodes"`
	NFeatures int       `json:"n_features"`
}

type nodeDoc struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"` // node index; -1 for leaves
	Right     int     `json:"r"`
	Proba     float64 `json:"p"`
	Leaf      bool    `json:"leaf"`
}

const forestFormatVersion = 1

// WriteForest serializes a fitted forest.
func WriteForest(w io.Writer, f *Forest) error {
	if !f.fitted {
		return fmt.Errorf("model: cannot serialize an unfitted forest")
	}
	doc := forestDoc{
		Version:  forestFormatVersion,
		Balanced: f.Balanced,
		Seed:     f.Seed,
		MaxDepth: f.MaxDepth,
		NumTrees: f.Trees,
	}
	for _, tr := range f.members {
		doc.Trees = append(doc.Trees, flattenTree(tr))
	}
	return json.NewEncoder(w).Encode(doc)
}

// ReadForest deserializes a forest written by WriteForest.
func ReadForest(r io.Reader) (*Forest, error) {
	var doc forestDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("model: decoding forest: %w", err)
	}
	if doc.Version != forestFormatVersion {
		return nil, fmt.Errorf("model: unsupported forest format version %d", doc.Version)
	}
	f := &Forest{
		Balanced: doc.Balanced,
		Seed:     doc.Seed,
		MaxDepth: doc.MaxDepth,
		Trees:    doc.NumTrees,
		fitted:   true,
	}
	for i := range doc.Trees {
		tr, err := unflattenTree(&doc.Trees[i])
		if err != nil {
			return nil, fmt.Errorf("model: tree %d: %w", i, err)
		}
		f.members = append(f.members, tr)
	}
	if len(f.members) == 0 {
		return nil, fmt.Errorf("model: forest document has no trees")
	}
	return f, nil
}

// flattenTree lays the tree nodes out in pre-order, the order they are
// stored in.
func flattenTree(tr *Tree) treeDoc {
	doc := treeDoc{NFeatures: tr.nFeatures, Nodes: make([]nodeDoc, len(tr.nodes))}
	for i, n := range tr.nodes {
		doc.Nodes[i] = nodeDoc{
			Feature: n.feature, Threshold: n.threshold,
			Proba: n.proba, Leaf: n.leaf, Left: n.left, Right: n.right,
		}
	}
	return doc
}

// unflattenTree rebuilds the node list and validates indices: children
// follow their parent, so the tree has no cycle.
func unflattenTree(doc *treeDoc) (*Tree, error) {
	if len(doc.Nodes) == 0 {
		return nil, fmt.Errorf("empty node list")
	}
	nodes := make([]treeNode, len(doc.Nodes))
	for i := range doc.Nodes {
		nd := &doc.Nodes[i]
		if nd.Leaf {
			if nd.Left != -1 || nd.Right != -1 {
				return nil, fmt.Errorf("leaf node %d has children", i)
			}
		} else if nd.Left <= i || nd.Left >= len(nodes) || nd.Right <= i || nd.Right >= len(nodes) {
			return nil, fmt.Errorf("node %d has invalid child indices (%d, %d)", i, nd.Left, nd.Right)
		}
		nodes[i] = treeNode{
			feature: nd.Feature, threshold: nd.Threshold,
			left: nd.Left, right: nd.Right,
			proba: nd.Proba, leaf: nd.Leaf,
		}
	}
	tr := &Tree{nFeatures: doc.NFeatures, fitted: true, nodes: nodes}
	tr.importances = make([]float64, doc.NFeatures)
	return tr, nil
}
