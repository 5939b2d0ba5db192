//! Convolutional models: AlexNet and ResNet-18/34.

use super::{ModelKind, ModelSpec, Workload};
use crate::dtype::DType;
use crate::layers::{
    BasicBlock, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Sequential,
};
use crate::ops::{self, Act, Conv2dCfg};
use crate::pycall::PyFrame;
use crate::session::Session;
use accel_sim::AccelError;

/// A CNN classifier: a [`Sequential`] body plus a cross-entropy head.
pub(crate) struct CnnModel {
    spec: ModelSpec,
    body: Sequential,
    input_shape: Vec<usize>,
    py_file: &'static str,
}

impl std::fmt::Debug for CnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CnnModel")
            .field("spec", &self.spec)
            .field("layers", &self.body.len())
            .finish()
    }
}

impl CnnModel {
    fn forward(&mut self, s: &mut Session<'_>, train: bool) -> Result<crate::Tensor, AccelError> {
        s.py_push(PyFrame::new(self.py_file, 146, "forward"));
        let input = s.alloc_tensor(&self.input_shape, DType::F32)?;
        let logits = self.body.forward(s, input, train)?;
        s.py_pop();
        Ok(logits)
    }
}

impl Workload for CnnModel {
    fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn inference_batch(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let logits = self.forward(s, false)?;
        s.free_tensor(&logits);
        Ok(())
    }

    fn training_iter(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        use crate::callbacks::Pass;
        s.pass_boundary(Pass::Forward);
        let logits = self.forward(s, true)?;
        let loss = ops::cross_entropy(s, &logits)?;
        s.free_tensor(&loss);
        s.pass_boundary(Pass::Backward);
        let grad = ops::cross_entropy_backward(s, &logits)?;
        let g_input = self.body.backward(s, grad)?;
        s.free_tensor(&g_input);
        s.free_tensor(&logits);
        s.pass_boundary(Pass::Optimizer);
        self.body.step(s)?;
        Ok(())
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.body.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.body.param_bytes()
    }
}

/// Builds AlexNet (Krizhevsky et al.) with the paper's batch size of 128.
///
/// # Errors
///
/// Propagates allocator out-of-memory while creating parameters.
pub(crate) fn alexnet(s: &mut Session<'_>, batch: usize) -> Result<CnnModel, AccelError> {
    let mut body = Sequential::new("alexnet");
    let conv = |s: &mut Session<'_>, name: &str, cin, cout, k, stride, pad| {
        Conv2d::new(
            s,
            name,
            Conv2dCfg {
                cin,
                cout,
                k,
                stride,
                pad,
            },
            Act::Relu,
        )
    };
    body.push(Box::new(conv(s, "features.0", 3, 64, 11, 4, 2)?));
    body.push(Box::new(MaxPool2d::new("features.2", 3, 2)));
    body.push(Box::new(conv(s, "features.3", 64, 192, 5, 1, 2)?));
    body.push(Box::new(MaxPool2d::new("features.5", 3, 2)));
    body.push(Box::new(conv(s, "features.6", 192, 384, 3, 1, 1)?));
    body.push(Box::new(conv(s, "features.8", 384, 256, 3, 1, 1)?));
    body.push(Box::new(conv(s, "features.10", 256, 256, 3, 1, 1)?));
    body.push(Box::new(MaxPool2d::new("features.12", 3, 2)));
    body.push(Box::new(Flatten::new("flatten")));
    body.push(Box::new(Linear::new(
        s,
        "classifier.1",
        256 * 6 * 6,
        4096,
        true,
        Act::Relu,
    )?));
    body.push(Box::new(Linear::new(
        s,
        "classifier.4",
        4096,
        4096,
        true,
        Act::Relu,
    )?));
    body.push(Box::new(Linear::new(
        s,
        "classifier.6",
        4096,
        1000,
        true,
        Act::None,
    )?));
    Ok(CnnModel {
        spec: ModelSpec {
            name: "AlexNet",
            abbr: "AN",
            kind: ModelKind::Cnn,
            layers: 8,
            batch,
        },
        body,
        input_shape: vec![batch, 3, 224, 224],
        py_file: "models/alexnet/run_alexnet.py",
    })
}

/// Builds a ResNet with the given per-stage block counts
/// (`[2,2,2,2]` = ResNet-18, `[3,4,6,3]` = ResNet-34).
///
/// # Errors
///
/// Propagates allocator out-of-memory while creating parameters.
pub(crate) fn resnet(
    s: &mut Session<'_>,
    batch: usize,
    blocks: &[usize; 4],
    name: &'static str,
) -> Result<CnnModel, AccelError> {
    let mut body = Sequential::new(name);
    body.push(Box::new(Conv2d::new(
        s,
        "conv1",
        Conv2dCfg {
            cin: 3,
            cout: 64,
            k: 7,
            stride: 2,
            pad: 3,
        },
        Act::None,
    )?));
    body.push(Box::new(BatchNorm2d::new(s, "bn1", 64)?));
    body.push(Box::new(MaxPool2d::new("maxpool", 3, 2)));
    let widths = [64usize, 128, 256, 512];
    let mut cin = 64;
    for (stage, (&n_blocks, &width)) in blocks.iter().zip(widths.iter()).enumerate() {
        for b in 0..n_blocks {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            body.push(Box::new(BasicBlock::new(
                s,
                format!("layer{}.{b}", stage + 1),
                cin,
                width,
                stride,
            )?));
            cin = width;
        }
    }
    body.push(Box::new(GlobalAvgPool::new("avgpool")));
    body.push(Box::new(Flatten::new("flatten")));
    body.push(Box::new(Linear::new(s, "fc", 512, 1000, true, Act::None)?));
    let layers = 2 + 2 * blocks.iter().sum::<usize>(); // paper counts conv+fc
    Ok(CnnModel {
        spec: ModelSpec {
            name: if name == "ResNet18" {
                "ResNet18"
            } else {
                "ResNet34"
            },
            abbr: if name == "ResNet18" { "RN-18" } else { "RN-34" },
            kind: ModelKind::Cnn,
            layers,
            batch,
        },
        body,
        input_shape: vec![batch, 3, 224, 224],
        py_file: "models/resnet/run_resnet.py",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn with_session<T>(f: impl FnOnce(&mut Session<'_>) -> T) -> T {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        f(&mut s)
    }

    #[test]
    fn alexnet_inference_runs_and_cleans_up() {
        with_session(|s| {
            let mut m = alexnet(s, 8).unwrap();
            let params = s.allocator_stats().allocated;
            assert!(params > 200 << 20, "AlexNet has ~244 MB of parameters");
            m.inference_batch(s).unwrap();
            s.release_workspaces();
            assert_eq!(
                s.allocator_stats().allocated,
                params,
                "inference leaves only parameters live"
            );
            assert!(s.kernels_launched() > 10);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }

    #[test]
    fn alexnet_training_iter_cleans_up() {
        with_session(|s| {
            let mut m = alexnet(s, 4).unwrap();
            let params = s.allocator_stats().allocated;
            m.training_iter(s).unwrap();
            s.release_workspaces();
            // Adam moments double the persistent state twice over.
            assert_eq!(s.allocator_stats().allocated, params * 3);
            let peak = s.allocator_stats().peak_allocated;
            assert!(peak > params * 3, "training peak exceeds steady state");
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }

    #[test]
    fn resnet18_has_eight_blocks_and_runs() {
        with_session(|s| {
            let mut m = resnet(s, 2, &[2, 2, 2, 2], "ResNet18").unwrap();
            assert_eq!(m.spec().layers, 18);
            m.inference_batch(s).unwrap();
            let k18 = s.kernels_launched();
            assert!(k18 > 40, "ResNet18 launches many kernels, got {k18}");
            m.destroy(s);
        });
    }

    #[test]
    fn resnet34_launches_more_kernels_than_resnet18() {
        let k18 = with_session(|s| {
            let mut m = resnet(s, 2, &[2, 2, 2, 2], "ResNet18").unwrap();
            m.inference_batch(s).unwrap();
            let k = s.kernels_launched();
            m.destroy(s);
            k
        });
        let k34 = with_session(|s| {
            let mut m = resnet(s, 2, &[3, 4, 6, 3], "ResNet34").unwrap();
            m.inference_batch(s).unwrap();
            let k = s.kernels_launched();
            m.destroy(s);
            k
        });
        assert!(k34 > k18, "{k34} vs {k18}");
        // The paper's Table V ratio is roughly 2657/1497 ≈ 1.8.
        let ratio = k34 as f64 / k18 as f64;
        assert!((1.3..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn resnet_training_cleans_up() {
        with_session(|s| {
            let mut m = resnet(s, 2, &[2, 2, 2, 2], "ResNet18").unwrap();
            let params = s.allocator_stats().allocated;
            m.training_iter(s).unwrap();
            s.release_workspaces();
            assert_eq!(s.allocator_stats().allocated, params * 3);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }
}
