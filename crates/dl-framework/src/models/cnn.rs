//! Convolutional models: AlexNet and ResNet-18/34.

use super::{ModelSpec, Workload};
use crate::dtype::DType;
use crate::layers::{
    BasicBlock, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Params, Sequential,
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

/// A square convolution layer.
fn conv(
    s: &mut Session<'_>,
    [cin, cout, k, stride, pad]: [usize; 5],
    act: Act,
) -> Result<Conv2d, AccelError> {
    let cfg = Conv2dCfg {
        cin,
        cout,
        k,
        stride,
        pad,
    };
    Conv2d::new(s, cfg, act)
}

/// Builds AlexNet (Krizhevsky et al.) at `spec`'s batch size (the
/// paper's is 128).
///
/// # Errors
///
/// Propagates allocator out-of-memory while creating parameters.
pub(crate) fn alexnet(s: &mut Session<'_>, spec: ModelSpec) -> Result<CnnModel, AccelError> {
    let mut body = Sequential::default();
    body.push("features.0", conv(s, [3, 64, 11, 4, 2], Act::Relu)?);
    body.push("features.2", MaxPool2d::new(3, 2));
    body.push("features.3", conv(s, [64, 192, 5, 1, 2], Act::Relu)?);
    body.push("features.5", MaxPool2d::new(3, 2));
    body.push("features.6", conv(s, [192, 384, 3, 1, 1], Act::Relu)?);
    body.push("features.8", conv(s, [384, 256, 3, 1, 1], Act::Relu)?);
    body.push("features.10", conv(s, [256, 256, 3, 1, 1], Act::Relu)?);
    body.push("features.12", MaxPool2d::new(3, 2));
    body.push("flatten", Flatten);
    body.push(
        "classifier.1",
        Linear::new(s, 256 * 6 * 6, 4096, true, Act::Relu)?,
    );
    body.push("classifier.4", Linear::new(s, 4096, 4096, true, Act::Relu)?);
    body.push("classifier.6", Linear::new(s, 4096, 1000, true, Act::None)?);
    Ok(CnnModel {
        input_shape: vec![spec.batch, 3, 224, 224],
        spec,
        body,
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
    spec: ModelSpec,
    blocks: &[usize; 4],
) -> Result<CnnModel, AccelError> {
    let mut body = Sequential::default();
    body.push("conv1", conv(s, [3, 64, 7, 2, 3], Act::None)?);
    body.push("bn1", BatchNorm2d::new(s, 64)?);
    body.push("maxpool", MaxPool2d::new(3, 2));
    let widths = [64usize, 128, 256, 512];
    let mut cin = 64;
    for (stage, (&n_blocks, &width)) in blocks.iter().zip(widths.iter()).enumerate() {
        for b in 0..n_blocks {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            let block = BasicBlock::new(s, cin, width, stride)?;
            body.push(format!("layer{}.{b}", stage + 1), block);
            cin = width;
        }
    }
    body.push("avgpool", GlobalAvgPool);
    body.push("flatten", Flatten);
    body.push("fc", Linear::new(s, 512, 1000, true, Act::None)?);
    Ok(CnnModel {
        input_shape: vec![spec.batch, 3, 224, 224],
        spec,
        body,
        py_file: "models/resnet/run_resnet.py",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelZoo;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn with_session<T>(f: impl FnOnce(&mut Session<'_>) -> T) -> T {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        f(&mut s)
    }

    fn at(zoo: ModelZoo, batch: usize) -> ModelSpec {
        ModelSpec {
            batch,
            ..zoo.spec()
        }
    }

    #[test]
    fn alexnet_inference_runs_and_cleans_up() {
        with_session(|s| {
            let mut m = alexnet(s, at(ModelZoo::AlexNet, 8)).unwrap();
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
            let mut m = alexnet(s, at(ModelZoo::AlexNet, 4)).unwrap();
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
            let mut m = resnet(s, at(ModelZoo::ResNet18, 2), &[2, 2, 2, 2]).unwrap();
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
            let mut m = resnet(s, at(ModelZoo::ResNet18, 2), &[2, 2, 2, 2]).unwrap();
            m.inference_batch(s).unwrap();
            let k = s.kernels_launched();
            m.destroy(s);
            k
        });
        let k34 = with_session(|s| {
            let mut m = resnet(s, at(ModelZoo::ResNet34, 2), &[3, 4, 6, 3]).unwrap();
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
            let mut m = resnet(s, at(ModelZoo::ResNet18, 2), &[2, 2, 2, 2]).unwrap();
            let params = s.allocator_stats().allocated;
            m.training_iter(s).unwrap();
            s.release_workspaces();
            assert_eq!(s.allocator_stats().allocated, params * 3);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }
}
