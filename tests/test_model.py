
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexfmm.model import (
    Domain,
    Particle,
    ParticleFileError,
    Particles,
    enclosing_domain,
    generate_particles,
    read_particles,
    to_arrays,
    write_particles,
)

UNIT = Domain(0.0, 0.0, 1.0)
FIELDS = ("x", "y", "gamma", "sigma")


def field_bytes(particles) -> list[bytes]:
    """The four fields' raw bytes: equal lists mean bitwise-equal particle sets."""
    return [field.tobytes() for field in to_arrays(particles)]


def test_generation_is_deterministic():
    a = generate_particles("uniform_random", 5, 7, UNIT, 0.01)
    b = generate_particles("uniform_random", 5, 7, UNIT, 0.01)
    assert field_bytes(a) == field_bytes(b)


def test_different_seeds_differ():
    a = generate_particles("uniform_random", 50, 1, UNIT, 0.01)
    b = generate_particles("uniform_random", 50, 2, UNIT, 0.01)
    assert field_bytes(a) != field_bytes(b)


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 7), (1000, 2**40)])
def test_uniform_stream_layout(n, seed):
    # one (n, 2) position draw, then one circulation draw: part of the
    # reproducibility contract
    rng = np.random.default_rng(seed)
    pos = rng.uniform(size=(n, 2))
    gamma = rng.uniform(-1.0, 1.0, n)
    particles = generate_particles("uniform_random", n, seed)
    assert len(particles) == n
    assert field_bytes(particles) == [
        pos[:, 0].tobytes(), pos[:, 1].tobytes(), gamma.tobytes(), np.full(n, 0.005).tobytes()
    ]


def some_fields(n=12) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    xy = rng.uniform(size=(2, n))
    return {"x": xy[0], "y": xy[1], "gamma": rng.uniform(-1, 1, n), "sigma": np.full(n, 0.01)}


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in FIELDS for v in (np.nan, np.inf, -np.inf)] + [("sigma", 0.0), ("sigma", -0.01)],
)
def test_particles_reject_bad_values_naming_the_index(field, value):
    fields = some_fields()
    fields[field][7] = value
    message = r"^particle 7: need finite x, y, gamma and core radius sigma > 0, got Particle\("
    with pytest.raises(ValueError, match=message):
        Particles(**fields)
    with pytest.raises(ValueError, match=message):
        Particles.of([Particle(*row) for row in zip(*(fields[f].tolist() for f in FIELDS))])


@pytest.mark.parametrize(
    "shapes",
    [
        ((12,), (12,), (11,), (12,)),
        ((12,), (13,), (12,), (12,)),
        ((12, 2),) * 4,
        ((12, 2), (12,), (12,), (12,)),
        ((),) * 4,
    ],
)
def test_particles_reject_fields_not_1d_of_one_length(shapes):
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        Particles(*(np.full(shape, 0.5) for shape in shapes))


def test_particles_fields_are_read_only_copies():
    fields = some_fields()
    particles = Particles(**fields)
    before = field_bytes(particles)
    for f in FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(particles, f)[0] = 0.5
        fields[f][:] = np.nan  # the caller's arrays stay the caller's
    assert field_bytes(particles) == before
    assert len(particles) == 12
    assert Particles.of(particles) is particles


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    dist=st.sampled_from(("uniform_random", "gaussian_patch", "two_patches")),
)
def test_positions_inside_domain(seed, n, dist):
    domain = Domain(-2.0, 3.0, 5.0)
    x, y, _, sig = to_arrays(generate_particles(dist, n, seed, domain, 0.02))
    assert np.all((x >= domain.xmin) & (x <= domain.xmax))
    assert np.all((y >= domain.ymin) & (y <= domain.ymax))
    assert np.all(sig == 0.02)


def test_uniform_gamma_in_range():
    _, _, gamma, _ = to_arrays(generate_particles("uniform_random", 500, 11, UNIT, 0.01))
    assert np.all(gamma >= -1.0) and np.all(gamma <= 1.0)
    assert (gamma < 0).any() and (gamma > 0).any()


def test_gaussian_patch_positive_and_peaked_at_center():
    particles = generate_particles("gaussian_patch", 1000, 1, UNIT, 0.01)
    x, y, gamma, _ = to_arrays(particles)
    assert np.all(gamma > 0)
    r = np.hypot(x - 0.5, y - 0.5)
    assert np.argmax(gamma) == np.argmin(r)


def test_two_patches_nearly_cancel():
    # by construction the signed sum is small next to the total strength
    _, _, gamma, _ = to_arrays(generate_particles("two_patches", 2000, 3, UNIT, 0.01))
    assert abs(gamma.sum()) <= 0.1 * np.abs(gamma).sum()


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_particles("uniform_random", 0, 1, UNIT, 0.01)
    with pytest.raises(ValueError):
        generate_particles("no_such_distribution", 10, 1, UNIT, 0.01)
    with pytest.raises(ValueError):
        generate_particles("uniform_random", 10, 1, UNIT, -0.5)
    with pytest.raises(ValueError):
        Domain(0.0, 0.0, 0.0)
    with pytest.raises(TypeError, match="particle count must be an integer"):
        generate_particles("uniform_random", 10.0, 1, UNIT, 0.01)


@pytest.mark.parametrize("fields", [(0.0, 0.0, math.inf), (math.nan, 0.0, 1.0), (0.0, -math.inf, 1.0)])
def test_domain_fields_must_be_finite(fields):
    # Domain(0, 0, inf) gave 600 of 600 NaN velocities; Domain(nan, 0, 1) put every particle outside
    with pytest.raises(ValueError, match="must be finite"):
        Domain(*fields)


def test_roundtrip_single_particle(tmp_path):
    path = tmp_path / "one.csv"
    write_particles(path, [Particle(0.5, 0.5, 1.0, 0.01)])
    assert field_bytes(read_particles(path)) == field_bytes([Particle(0.5, 0.5, 1.0, 0.01)])


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=1e-12, max_value=1e6),
        ),
        max_size=20,
    )
)
def test_roundtrip_is_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("io") / "parts.csv"
    particles = [Particle(*row) for row in rows]
    write_particles(path, particles)
    back = read_particles(path)
    assert field_bytes(back) == field_bytes(particles)


def test_header_only_gives_empty_list(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,gamma,sigma\n")
    assert len(read_particles(path)) == 0


def test_parse_error_names_line_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,gamma,sigma\n0.1,0.2,notanumber,0.01\n")
    with pytest.raises(ParticleFileError, match=r":2:"):
        read_particles(path)


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,gamma,sigma\n0.1,0.2,0.3,0.01\n0.5,0.5\n")
    with pytest.raises(ParticleFileError, match=r":3:"):
        read_particles(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_field_names_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,gamma,sigma\n0.1,0.2,0.3,0.01\n0.5,0.5,{value},0.01\n")
    with pytest.raises(ParticleFileError, match=r":3: non-finite"):
        read_particles(path)


@pytest.mark.parametrize("sigma", ["0", "-0.01"])
def test_nonpositive_sigma_names_line(tmp_path, sigma):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,gamma,sigma\n0.1,0.2,0.3,{sigma}\n")
    with pytest.raises(ParticleFileError, match=r":2: core radius"):
        read_particles(path)


def test_missing_header_is_format_error(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.1,0.2,0.3,0.01\n")
    with pytest.raises(ParticleFileError, match="header"):
        read_particles(path)


def test_enclosing_domain_covers_all():
    particles = [Particle(-1.0, 2.0, 0.1, 0.01), Particle(3.0, 2.5, -0.2, 0.01)]
    dom = enclosing_domain(particles)
    assert dom.side == 4.0
    for p in particles:
        assert dom.contains(p.x, p.y)
    # degenerate extent falls back to a positive side
    assert enclosing_domain([Particle(0.3, 0.4, 1.0, 0.01)]).side > 0
