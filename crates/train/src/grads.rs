//! Gradient containers filled by the trainers' pure gradient kernels.
//!
//! Each model exposes its closed-form gradients through a `*_grads`
//! method that fills one of these structs *without touching any
//! parameter* — the shared training loops (the margin epoch in
//! [`crate::baselines`], the sampled 1-vs-all step in `one_vs_all`)
//! and TuckER's full-softmax step then hand the
//! pieces to their optimizers. Keeping the gradient math side-effect
//! free is what lets [`crate::contract`] finite-difference check the
//! exact code the training loops run, instead of a re-derived copy of
//! the formulas.

/// Gradients of a translational / rotational distance with respect to
/// one triple's three parameter rows (TransE, RotatE).
#[derive(Debug, Clone)]
pub struct TripleGrads {
    /// ∂dist/∂(head row).
    pub head: Vec<f32>,
    /// ∂dist/∂(relation row).
    pub rel: Vec<f32>,
    /// ∂dist/∂(tail row).
    pub tail: Vec<f32>,
}

impl TripleGrads {
    /// Zero-filled buffers for embedding dimension `dim`.
    pub fn new(dim: usize) -> Self {
        TripleGrads {
            head: vec![0.0; dim],
            rel: vec![0.0; dim],
            tail: vec![0.0; dim],
        }
    }
}

/// TransH's distance gradients: the three rows plus the hyperplane
/// normal `w_r`.
#[derive(Debug, Clone)]
pub struct TransHGrads {
    /// ∂dist/∂(head row).
    pub head: Vec<f32>,
    /// ∂dist/∂(relation row).
    pub rel: Vec<f32>,
    /// ∂dist/∂(tail row).
    pub tail: Vec<f32>,
    /// ∂dist/∂(normal `w_r`).
    pub normal: Vec<f32>,
}

impl TransHGrads {
    /// Zero-filled buffers for embedding dimension `dim`.
    pub fn new(dim: usize) -> Self {
        TransHGrads {
            head: vec![0.0; dim],
            rel: vec![0.0; dim],
            tail: vec![0.0; dim],
            normal: vec![0.0; dim],
        }
    }
}

/// One 1-vs-all side step of a query-vector model (HolE, QuatE, MlpE):
/// the loss, the query vector `q`, the softmax residual over the
/// candidate list, `∂loss/∂q`, and the chain-rule gradients of the
/// anchor and relation rows. Candidate `slot`'s entity row gradient is
/// `resid[slot] · q`.
#[derive(Debug, Clone)]
pub struct SideGrads {
    /// Multiclass log-loss of the step.
    pub loss: f32,
    /// Query vector (`score(c) = ⟨q, E[c]⟩`).
    pub q: Vec<f32>,
    /// Softmax residual per candidate slot (`softmax − onehot`).
    pub resid: Vec<f32>,
    /// ∂loss/∂q `= Σ_slot resid[slot] · E[c]`.
    pub g_q: Vec<f32>,
    /// ∂loss/∂(anchor entity row).
    pub anchor: Vec<f32>,
    /// ∂loss/∂(relation row).
    pub rel: Vec<f32>,
}

impl SideGrads {
    /// Zero-filled buffers for embedding dimension `dim`.
    pub fn new(dim: usize) -> Self {
        SideGrads {
            loss: 0.0,
            q: vec![0.0; dim],
            resid: Vec::new(),
            g_q: vec![0.0; dim],
            anchor: vec![0.0; dim],
            rel: vec![0.0; dim],
        }
    }
}

impl AsRef<SideGrads> for SideGrads {
    fn as_ref(&self) -> &SideGrads {
        self
    }
}

/// MlpE's side step: the [`SideGrads`] pieces plus the network-layer
/// cotangents. Row gradients of the layers are outer products:
/// `∂loss/∂W2[i] = g_q[i] · hid`, `∂loss/∂W1[j] = d_hid[j] · input`,
/// `∂loss/∂b2 = g_q`, `∂loss/∂b1 = d_hid`.
#[derive(Debug, Clone)]
pub struct MlpSideGrads {
    /// Loss, query, residual, `g_q` and the anchor/relation gradients.
    pub side: SideGrads,
    /// The network input `[anchor row ; relation row]` as read.
    pub input: Vec<f32>,
    /// Post-ReLU hidden activations (forward value, for W2 updates).
    pub hid: Vec<f32>,
    /// ReLU-masked hidden cotangent — also the bias-1 gradient.
    pub d_hid: Vec<f32>,
}

impl MlpSideGrads {
    /// Zero-filled buffers for dimension `dim` and hidden width `hidden`.
    pub fn new(dim: usize, hidden: usize) -> Self {
        MlpSideGrads {
            side: SideGrads::new(dim),
            input: vec![0.0; 2 * dim],
            hid: vec![0.0; hidden],
            d_hid: vec![0.0; hidden],
        }
    }
}

impl AsRef<SideGrads> for MlpSideGrads {
    fn as_ref(&self) -> &SideGrads {
        &self.side
    }
}

/// TuckER's full-softmax tail step. The per-entity row gradient is the
/// outer product `resid[c] · v`; the core gradient is dense (`d³`).
#[derive(Debug, Clone)]
pub struct TuckErGrads {
    /// Multiclass log-loss of the step.
    pub loss: f32,
    /// Tail query vector `v = W ×₁ h ×₂ r`.
    pub v: Vec<f32>,
    /// Softmax residual over all entities.
    pub resid: Vec<f32>,
    /// ∂loss/∂(head row).
    pub head: Vec<f32>,
    /// ∂loss/∂(relation row).
    pub rel: Vec<f32>,
    /// ∂loss/∂W, dense `d³` in the core's own layout.
    pub core: Vec<f32>,
}

impl TuckErGrads {
    /// Zero-filled buffers for dimension `dim` and `num_entities`.
    pub fn new(dim: usize, num_entities: usize) -> Self {
        TuckErGrads {
            loss: 0.0,
            v: vec![0.0; dim],
            resid: vec![0.0; num_entities],
            head: vec![0.0; dim],
            rel: vec![0.0; dim],
            core: vec![0.0; dim * dim * dim],
        }
    }
}
