//! # gpubox-classify — memorygram datasets and from-scratch classifiers
//!
//! Support crate for the side-channel attacks of *"Spy in the GPU-box"*
//! (ISCA 2023): the [`Memorygram`] type recorded by the spy, image-style
//! feature extraction, a multinomial [`LogisticClassifier`] (the paper
//! uses a DNN image classifier; softmax regression over standardized
//! features reaches 100% on the Fig. 12 dataset), a [`KnnClassifier`]
//! baseline, and evaluation
//! utilities (stratified splits, accuracy, the Fig. 12 confusion matrix).
//!
//! ```
//! use gpubox_classify::{LogisticClassifier, TrainConfig};
//! let data = vec![
//!     (vec![1.0, 0.0], 0), (vec![0.9, 0.1], 0),
//!     (vec![0.0, 1.0], 1), (vec![0.1, 0.9], 1),
//! ];
//! let model = LogisticClassifier::train(&data, 2, &TrainConfig::default());
//! assert_eq!(model.predict(&[0.95, 0.0]), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eval;
pub mod knn;
pub mod logreg;
pub mod memorygram;

pub use eval::{clopper_pearson_lower, stratified_split, ConfusionMatrix, Split};
pub use knn::KnnClassifier;
pub use logreg::{LogisticClassifier, TrainConfig};
pub use memorygram::Memorygram;
