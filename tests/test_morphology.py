from __future__ import annotations

import io
import itertools

import pytest

from latmeet.endo import is_join_endomorphism
from latmeet.errors import BudgetExceededError, OutOfRangeError
from latmeet.morphology import (SE_CATALOG, BinaryImage, PixelGrid,
                                StructuringElement, dilate,
                                dilation_as_endofunction, format_text_image,
                                meet_of_dilations, parse_text_image, read_pbm,
                                write_pbm)


def test_binary_image_validation_and_union():
    img = BinaryImage(3, 2, {(0, 0), (2, 1)})
    assert img.on_pixels == frozenset({(0, 0), (2, 1)})
    with pytest.raises(OutOfRangeError):
        BinaryImage(2, 2, {(2, 0)})
    other = BinaryImage(3, 2, {(1, 0)})
    assert img.union(other).on_pixels == {(0, 0), (1, 0), (2, 1)}


def test_structuring_element_intersection():
    h = SE_CATALOG['hline']
    v = SE_CATALOG['vline']
    assert h.intersection(v).offsets == frozenset({(0, 0)})
    assert SE_CATALOG['cross'].intersection(SE_CATALOG['square']).offsets \
        == SE_CATALOG['cross'].offsets


def test_dilate_hand_cases():
    center = BinaryImage(3, 3, {(1, 1)})
    assert dilate(center, SE_CATALOG['dot']).on_pixels == {(1, 1)}
    assert dilate(center, SE_CATALOG['empty']).on_pixels == frozenset()
    assert dilate(center, SE_CATALOG['cross']).on_pixels == {
        (1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}
    corner = BinaryImage(2, 2, {(1, 1)})
    assert dilate(corner, SE_CATALOG['square']).on_pixels == {
        (0, 0), (1, 0), (0, 1), (1, 1)}


def test_dilation_clips_to_bounds():
    edge = BinaryImage(2, 1, {(1, 0)})
    dilated = dilate(edge, SE_CATALOG['hpair'])
    assert dilated.on_pixels == {(1, 0)}


def test_pixel_grid_masks_round_trip():
    grid = PixelGrid(3, 2)
    assert grid.lattice.n == 64
    for mask in range(64):
        img = grid.mask_to_image(mask)
        assert grid.image_to_mask(img) == mask


def test_pixel_grid_cap():
    with pytest.raises(BudgetExceededError):
        PixelGrid(5, 4)


def test_dilation_endofunction_matches_direct_dilation():
    grid = PixelGrid(2, 2)
    for name, se in SE_CATALOG.items():
        f = dilation_as_endofunction(grid, se)
        assert is_join_endomorphism(f), name
        for mask in range(16):
            img = grid.mask_to_image(mask)
            assert f.values[mask] == grid.image_to_mask(dilate(img, se)), name


@pytest.mark.parametrize('size', [(2, 3), (3, 3)], ids=lambda s: f'{s[0]}x{s[1]}')
def test_dilation_endofunction_is_dilate_mask_by_mask(size):
    grid = PixelGrid(*size)
    for name, se in SE_CATALOG.items():
        want = tuple(grid.image_to_mask(dilate(grid.mask_to_image(mask), se))
                     for mask in range(grid.lattice.n))
        assert dilation_as_endofunction(grid, se).values == want, name


def test_dilation_endofunction_identity_and_bottom():
    grid = PixelGrid(2, 2)
    ident = dilation_as_endofunction(grid, SE_CATALOG['dot'])
    assert ident.values == tuple(range(16))
    nothing = dilation_as_endofunction(grid, SE_CATALOG['empty'])
    assert set(nothing.values) == {0}


def test_meet_of_dilations_agrees_with_intersection():
    image = parse_text_image('.#\n##')
    for a, b in itertools.combinations(SE_CATALOG.values(), 2):
        via_lattice, direct = meet_of_dilations(image, [a, b])
        assert via_lattice.on_pixels == direct.on_pixels
        assert direct.on_pixels == dilate(image, a.intersection(b)).on_pixels


def test_meet_of_dilations_other_algorithms():
    image = parse_text_image('#.\n.#')
    ses = [SE_CATALOG['cross'], SE_CATALOG['square'], SE_CATALOG['hline']]
    base, direct = meet_of_dilations(image, ses)
    assert base.on_pixels == direct.on_pixels
    for alg in ('gmeet+', 'gmeet', 'brute'):
        got, _ = meet_of_dilations(image, ses, algorithm=alg)
        assert got.on_pixels == base.on_pixels, alg


def test_meet_of_dilations_on_three_by_three():
    image = parse_text_image('#..\n.#.\n..#')
    via_lattice, direct = meet_of_dilations(
        image, [SE_CATALOG['hline'], SE_CATALOG['cross']])
    assert via_lattice.on_pixels == direct.on_pixels


def test_text_image_round_trip():
    text = '#..\n.#.\n..#'
    img = parse_text_image(text)
    assert img.width == 3 and img.height == 3
    assert format_text_image(img) == text
    with pytest.raises(ValueError):
        parse_text_image('#.\n#')
    with pytest.raises(ValueError):
        parse_text_image('#x')


def test_pbm_round_trip():
    img = parse_text_image('##.\n..#')
    buf = io.StringIO()
    write_pbm(buf, img)
    clone = read_pbm(io.StringIO(buf.getvalue()))
    assert clone.on_pixels == img.on_pixels
    assert clone.width == img.width and clone.height == img.height


def test_pbm_accepts_comments_and_whitespace():
    text = 'P1\n# a comment\n 3 2\n1 0 1\n# mid comment\n0 1 0\n'
    img = read_pbm(io.StringIO(text))
    assert img.width == 3 and img.height == 2
    assert img.on_pixels == {(0, 0), (2, 0), (1, 1)}
    with pytest.raises(ValueError):
        read_pbm(io.StringIO('P4\n2 2\n0 0 0 0'))


def test_custom_structuring_element():
    se = StructuringElement([(2, 0), (0, 0)])
    img = BinaryImage(4, 1, {(0, 0)})
    assert dilate(img, se).on_pixels == {(0, 0), (2, 0)}
