'''Binary-image dilation as a join-endomorphism on a pixel powerset lattice.

A dilation unions translated copies of the image, clipped to the grid, so it
preserves unions and the empty image: on the lattice of pixel subsets it is a
join-endomorphism.  The greatest join-endomorphism below a family of
dilations is the dilation by the intersection of their structuring elements,
and `meet_of_dilations` computes both sides so they can be compared.

Pixels are (x, y) with the origin top-left; the grid lattice packs pixel
(x, y) into bit y*width + x of a powerset element.  Clipping means the
operator is only translation-invariant away from the borders.
'''
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .endo import Endofunction
from .errors import BudgetExceededError, OutOfRangeError
from .glb import meet_algorithms
from .lattice import PowersetLattice

LATTICE_PIXEL_CAP = 16


@dataclass(frozen=True)
class BinaryImage:
    width: int
    height: int
    on_pixels: frozenset

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise OutOfRangeError('image dimensions must be positive')
        object.__setattr__(self, 'on_pixels', frozenset(self.on_pixels))
        for x, y in self.on_pixels:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise OutOfRangeError(f'pixel {(x, y)} outside {self.width}x{self.height}')

    def union(self, other):
        return BinaryImage(self.width, self.height, self.on_pixels | other.on_pixels)


@dataclass(frozen=True)
class StructuringElement:
    offsets: frozenset

    def __init__(self, offsets):
        object.__setattr__(self, 'offsets', frozenset(offsets))

    def intersection(self, other):
        return StructuringElement(self.offsets & other.offsets)


SE_CATALOG = {
    'empty': StructuringElement([]),
    'dot': StructuringElement([(0, 0)]),
    'hpair': StructuringElement([(0, 0), (1, 0)]),
    'vpair': StructuringElement([(0, 0), (0, 1)]),
    'hline': StructuringElement([(-1, 0), (0, 0), (1, 0)]),
    'vline': StructuringElement([(0, -1), (0, 0), (0, 1)]),
    'cross': StructuringElement([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]),
    'square': StructuringElement([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]),
    'diag': StructuringElement([(0, 0), (1, 1)]),
}


def dilate(image, se):
    'Union of SE-translated copies of the image, clipped to the grid.'
    on = {
        (x + dx, y + dy)
        for x, y in image.on_pixels
        for dx, dy in se.offsets
        if 0 <= x + dx < image.width and 0 <= y + dy < image.height
    }
    return BinaryImage(image.width, image.height, on)


class PixelGrid:
    'A width x height pixel grid and its powerset lattice.'

    def __init__(self, width, height):
        if width < 1 or height < 1:
            raise OutOfRangeError('grid dimensions must be positive')
        if width * height > LATTICE_PIXEL_CAP:
            raise BudgetExceededError(
                f'{width}x{height} grid exceeds the {LATTICE_PIXEL_CAP}-pixel lattice cap')
        self.width = width
        self.height = height
        self.lattice = PowersetLattice(width * height, label=f'grid:{width}x{height}')

    def image_to_mask(self, image):
        if (image.width, image.height) != (self.width, self.height):
            raise ValueError(f'image is {image.width}x{image.height}, '
                             f'grid is {self.width}x{self.height}')
        mask = 0
        for x, y in image.on_pixels:
            mask |= 1 << (y * self.width + x)
        return mask

    def mask_to_image(self, mask):
        on = {(i % self.width, i // self.width)
              for i in range(self.width * self.height) if mask >> i & 1}
        return BinaryImage(self.width, self.height, on)


def dilation_as_endofunction(grid, se):
    '''The action of dilate(-, se) on every subset of the grid.

    Singleton images are dilated directly; a dilation preserves unions, so
    every other value is the union of the values of its pixels, filled in
    by the lattice's bit-doubling `extend_by_joins`.'''
    singles = [grid.image_to_mask(dilate(grid.mask_to_image(1 << i), se))
               for i in range(grid.width * grid.height)]
    return Endofunction(grid.lattice, grid.lattice.extend_by_joins(singles))


def meet_of_dilations(image, ses, algorithm='dmeet+'):
    '''Greatest join-endomorphism below the given dilations, applied to the
    image, next to the direct dilation by the intersected structuring
    element.  Returns (lattice_path_image, direct_image).'''
    if not ses:
        raise ValueError('need at least one structuring element')
    grid = PixelGrid(image.width, image.height)
    endos = [dilation_as_endofunction(grid, se) for se in ses]
    result = meet_algorithms()[algorithm](grid.lattice, endos)
    via_lattice = grid.mask_to_image(result.endofunction(grid.image_to_mask(image)))
    return via_lattice, dilate(image, reduce(StructuringElement.intersection, ses))


def parse_text_image(text):
    'Rows of "." (off) and "#" (on), one line per row.'
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError('empty image text')
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError('ragged image rows')
    on = set()
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == '#':
                on.add((x, y))
            elif ch != '.':
                raise ValueError(f'bad pixel character {ch!r}')
    return BinaryImage(width, len(rows), on)


def format_text_image(image):
    return '\n'.join(
        ''.join('#' if (x, y) in image.on_pixels else '.'
                for x in range(image.width))
        for y in range(image.height)
    )


def read_pbm(fh):
    'Plain PBM (P1): magic, dimensions, then 0/1 tokens; # comments allowed.'
    tokens = []
    for line in fh:
        body = line.split('#', 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != 'P1':
        raise ValueError('not a plain PBM (P1) file')
    if len(tokens) < 3:
        raise ValueError('truncated PBM header')
    width, height = int(tokens[1]), int(tokens[2])
    bits = tokens[3:]
    if len(bits) != width * height:
        raise ValueError(f'expected {width * height} pixels, found {len(bits)}')
    on = {
        (i % width, i // width)
        for i, b in enumerate(bits)
        if b == '1'
    }
    return BinaryImage(width, height, on)


def write_pbm(fh, image):
    fh.write(f'P1\n{image.width} {image.height}\n')
    for y in range(image.height):
        fh.write(' '.join(
            '1' if (x, y) in image.on_pixels else '0'
            for x in range(image.width)) + '\n')
