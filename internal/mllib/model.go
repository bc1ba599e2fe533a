package mllib

import "sparker/internal/linalg"

// Model is the interface every trained mllib model except LDA
// implements: what sparker-train hands to SaveModelFile and what
// LoadModel returns. A new model family implements these three methods
// and adds its case to SaveModel and LoadModel.
//
// Predictions are float64 across the board: classifiers return the 0/1
// class, clusterers the cluster id as a float64 (use
// KMeansModel.NearestCenter for the int form).
type Model interface {
	// Kind identifies the model family ("logistic-regression", "svm",
	// "kmeans").
	Kind() string
	// NumFeatures is the input dimensionality the model expects.
	NumFeatures() int
	// Predict scores one point.
	Predict(x linalg.SparseVector) float64
}

// Interface conformance of every trained model type.
var (
	_ Model = (*LinearModel)(nil)
	_ Model = (*KMeansModel)(nil)
)
