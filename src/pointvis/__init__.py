"""Point-cloud visibility estimation and multi-resolution rasterization
for forward-moving LiDAR + camera sequences."""
