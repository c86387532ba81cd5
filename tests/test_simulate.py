import numpy as np
import pytest

from implicitreg import (
    Circle,
    ConstantNormal,
    Dataset,
    Ellipse,
    GeneratorSpec,
    Line,
    Uniform,
    generate,
)
from implicitreg.errors import InvalidSpec


class TestGenerate:
    def test_zero_noise_circle_on_curve(self):
        d = generate(GeneratorSpec(Circle(0, 0, 1), n=4, seed=12))
        np.testing.assert_allclose(d.x**2 + d.y**2, 1.0, atol=1e-12)

    def test_zero_noise_line_on_curve(self):
        d = generate(GeneratorSpec(Line(1.0, 2.0), n=10, seed=3))
        np.testing.assert_allclose(d.y, 1.0 + 2.0 * d.x, atol=1e-12)

    def test_zero_noise_ellipse_on_curve(self):
        k = Ellipse(1.0, -1.0, 2.0, 0.5, rot=0.3)
        d = generate(GeneratorSpec(k, n=20, seed=4))
        # rotate back and check the canonical form
        u = np.cos(k.rot) * (d.x - k.cx) + np.sin(k.rot) * (d.y - k.cy)
        v = -np.sin(k.rot) * (d.x - k.cx) + np.cos(k.rot) * (d.y - k.cy)
        np.testing.assert_allclose((u / k.ax) ** 2 + (v / k.ay) ** 2, 1.0, atol=1e-12)

    def test_uniform_mean_law_of_large_numbers(self):
        y = generate(GeneratorSpec(Uniform(0, 1), n=10_000, seed=5))
        assert abs(float(np.mean(y)) - 0.5) < 0.02   # 4 sigma / sqrt(n) bound

    def test_constant_normal_zero_sigma(self):
        y = generate(GeneratorSpec(ConstantNormal(10.0, 0.0), n=7, seed=6))
        assert np.all(y == 10.0)

    def test_determinism(self):
        spec = GeneratorSpec(Circle(1, 2, 3), n=50, noise_sigma=0.1, seed=99)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(Uniform(0, 1), n=10, seed=1))
        b = generate(GeneratorSpec(Uniform(0, 1), n=10, seed=2))
        assert not np.array_equal(a, b)

    def test_noise_applied(self):
        clean = generate(GeneratorSpec(Line(0, 1), n=30, seed=8))
        noisy = generate(GeneratorSpec(Line(0, 1), n=30, noise_sigma=0.2, seed=8))
        assert isinstance(noisy, Dataset)
        assert np.std(noisy.y - (0 + 1 * noisy.x)) > 0


class TestInvalidSpecs:
    @pytest.mark.parametrize("spec_kwargs", [
        dict(kind=Circle(0, 0, -1), n=5),
        dict(kind=Ellipse(0, 0, 0, 1), n=5),
        dict(kind=Uniform(2, 2), n=5),
        dict(kind=Line(0, 1), n=0),
        dict(kind=Line(0, 1), n=5, noise_sigma=-0.1),
        dict(kind=Line(0, 1), n=5, seed=-1),
        dict(kind="circle", n=3),
        dict(kind=(0.0, 0.0, 1.0), n=3),
        dict(kind=None, n=3),
    ])
    def test_rejected(self, spec_kwargs):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(**spec_kwargs)


    @pytest.mark.parametrize("spec_kwargs, field", [
        (dict(kind=Circle("a", 0, 1), n=3), "Circle.cx"),
        (dict(kind=Ellipse(0, 0, 1, 1, rot=None), n=3), "Ellipse.rot"),
        (dict(kind=Line(0, 1), n="5"), "n"),
        (dict(kind=Line(0, 1), n=2.5), "n"),
        (dict(kind=Line(0, 1), n=True), "n"),
        (dict(kind=Line(0, 1), n=5, seed=1.0), "seed"),
        (dict(kind=Line(0, 1), n=5, noise_sigma="0.1"), "noise_sigma"),
    ])
    def test_wrong_type_names_its_field(self, spec_kwargs, field):
        # Refused before any comparison, so no TypeError leaks.
        with pytest.raises(InvalidSpec, match=rf"^{field} must be an? (integer|real number), "):
            GeneratorSpec(**spec_kwargs)

    def test_numpy_scalars_accepted(self):
        spec = GeneratorSpec(Line(np.float64(1), np.float32(2)), n=np.int64(5),
                             noise_sigma=np.float64(0.1), seed=np.uint8(3))
        assert generate(spec).x.shape == (5,)


class TestSamplesBeyondFloatRange:
    """Parameters whose samples leave the float range are refused, without a
    numpy warning, for the vector kinds as for the Dataset kinds."""

    @pytest.mark.parametrize("kind, n, noise", [
        (ConstantNormal(1e308, 1e308), 100, 0.0),
        (Uniform(-1e308, 1e308), 100, 0.0),
        (Circle(1e308, 0.0, 1e308), 3, 0.0),
        (Ellipse(1e308, 0.0, 1e308, 1e308, 0.7), 100, 0.0),
        (Line(0.0, 1e308), 3, 0.0),
        (Line(0.0, 1.0), 100, 1e308),
    ])
    def test_refused(self, recwarn, kind, n, noise):
        with pytest.raises(InvalidSpec, match=rf"^{type(kind).__name__}\(.*\) gives samples "
                                              "beyond the float range$"):
            generate(GeneratorSpec(kind, n=n, noise_sigma=noise, seed=0))
        assert not recwarn.list

    def test_large_finite_samples_kept(self):
        y = generate(GeneratorSpec(ConstantNormal(1e308, 1e300), n=100, seed=0))
        assert np.isfinite(y).all()
