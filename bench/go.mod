module flexvc/bench

go 1.24

require flexvc v0.0.0

replace flexvc => ../
